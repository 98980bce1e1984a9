(** The batch solve engine behind [ttsv_cli serve].

    One engine owns two {!Cache} levels, both keyed by the canonical
    {!Protocol.solve_key}:

    - {b operators}: assembled CSR conductance matrices with their
      source vector — skips meshing + assembly on a repeated geometry;
    - {b solutions}: previous temperature fields, used to warm-start
      repeated queries (exact key hit) and nearby ones (freshest
      dimension-compatible field).

    Every solve is then one {!Ttsv_robust.Robust.solve} on the default
    ladder, seeded with that field.  An exact hit is accepted there for
    one matvec, before any preconditioner is built; anything else is
    answered by the band-Cholesky rung in one or two CG iterations.

    There is no preconditioner cache.  Its entries were never reused: a
    cold key is distinct by definition, and a repeated key is an exact
    warm start that needs no preconditioner.  On the repository
    benchmark's cold-request workload ([serve_cold]), a 32-entry LRU of
    band factors raised peak RSS to about 66 MiB, against about 42 MiB
    with the IC(0) factors it used to hold and about 37 MiB with no
    preconditioner cache at all.

    Every request is handled inside a [service.request] span and feeds
    [service.*] metrics; every failure path maps to a typed
    {!Protocol.error} response — an engine never lets an exception
    escape a request. *)

type t

val create :
  ?pool:Ttsv_parallel.Pool.t ->
  ?operators:int ->
  ?solutions:int ->
  unit ->
  t
(** [create ()] builds an engine with the given per-level cache
    capacities (defaults: 32 operators, 64 solutions).  [pool], when
    given, shards batches of several requests across its domains, one
    request per domain; a lone request instead runs its assembly, its
    band-Cholesky factor's two parts and its Krylov kernels on the
    pool. *)

val handle : t -> Protocol.request -> Protocol.response
(** Handle one request; total (never raises). *)

val handle_batch : t -> Protocol.request array -> Protocol.response array
(** Handle a batch, sharding the (independent) requests across the
    engine's pool one request per task; responses come back in request
    order.  Cache effects depend on completion order under a pool —
    results never do. *)

val serve : ?batch:int -> t -> in_channel -> out_channel -> int
(** [serve t ic oc] reads JSONL requests from [ic] in groups of at most
    [batch] lines (default 64), handles each group with {!handle_batch},
    and writes one JSONL response per input line to [oc] (in input
    order, flushed per group) until end of input.  Malformed lines
    become typed [error] responses in place.  Returns the number of
    lines answered.
    @raise Invalid_argument when [batch < 1]. *)

val cache_stats : t -> (string * (int * int * int)) list
(** Per-level [(name, (hits, misses, evictions))], in (operator,
    solution) order. *)

val hit_rate : t -> float
(** Pooled hit rate over both levels; 0 before any lookup. *)
