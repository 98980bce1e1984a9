(** Resilient linear solving: the escalation ladder.

    [solve] climbs a ladder of solver rungs — CG preconditioned by the
    exact band Cholesky factor, demoting to IC(0)-CG, then SSOR-CG,
    then Jacobi-CG, then BiCGStab (warm-started from the best iterate so
    far), then a direct banded/dense LU fallback — until one of them
    produces a solution, and returns a {!Diagnostics.t} recording which
    rungs fired (the preconditioner rung included), why the failed ones
    stopped, and the residual history.  A preconditioner whose
    {e construction} fails (a band too wide to factor, IC(0) pivot
    breakdown at every diagonal shift, SSOR on a zero diagonal) costs
    zero iterations: the rung is recorded as [Skipped] with the reason
    and the ladder demotes immediately.  Inputs containing NaN/Inf (or
    with mismatched dimensions) are rejected up front without spending
    a single iteration.

    Every failure path is a typed value: no [failwith], no silently
    non-converged result. *)

type reason =
  | Invalid_input of string list
      (** the system was rejected before any rung ran (each entry is one
          human-readable problem) *)
  | Exhausted  (** every rung was attempted and none produced a solution *)
  | Deadline_exceeded
      (** the {!Ttsv_parallel.Budget} expired (deadline or work cap)
          before any rung converged — a {e partial} result: [best]
          carries the least-bad iterate reached and the diagnostics
          record how far each rung got *)

type failure = {
  reason : reason;
  diagnostics : Diagnostics.t;
  best : Ttsv_numerics.Vec.t option;
      (** the least-bad iterate seen across the rungs, when any rung got
          that far — useful for post-mortems and damped restarts *)
  best_residual : float;  (** its true relative residual (NaN when [best] is [None]) *)
}

exception Solve_failed of failure
(** Raised by {!solve_exn} and by the exception-style FEM entry points. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_failure : Format.formatter -> failure -> unit

val default_rungs : Diagnostics.rung list
(** [[Cg_chol; Cg_ic0; Cg_ssor; Cg; Bicgstab; Direct]] — the ladder used
    when no [rungs] list is supplied, with or without a [shape].

    The band factor heads it because, on the 2-D unit cell (numbered
    radius-fastest, half-bandwidth [nr = 15·resolution]), its
    [n·nr²/2] setup (two halves, on two domains when [pool] has them)
    costs less than the IC(0)-CG iterations it replaces at every size: on the block stack, resolution 1 takes 0.94 ms in
    one iteration against IC(0)-CG's 4.6 ms in 68, resolution 2 6.1 ms
    against 26 ms, resolution 8 0.65 s against 1.3 s (README).  The
    factor alone misses [tol] from resolution 4 up (relative residual
    6e-7 at resolution 8), so it is a CG preconditioner and CG's true
    residual, guards and budget polling still decide the answer.  On the 3-D
    stack ([bw = nx·ny], [bw² > n]) the rung is refused after one
    bandwidth scan and IC(0)-CG answers. *)

val mg_rungs : Diagnostics.rung list
(** [Cg_mg :: default_rungs] — the opt-in multigrid ladder (the CLI's
    [--precond mg]).  Never chosen implicitly: on every grid in
    BENCH_multigrid.json, up to the 3-D resolution-2 stack, mg setup
    plus cycles takes 2.6–4.5x the wall time of the IC(0) rung's whole
    solve, although mg needs an order of magnitude fewer iterations. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Ttsv_numerics.Vec.t ->
  ?on_iterate:(int -> float -> unit) ->
  ?stagnation_window:int ->
  ?divergence_factor:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Diagnostics.rung list ->
  ?shape:int array ->
  ?budget:Ttsv_parallel.Budget.t ->
  Ttsv_numerics.Sparse.t ->
  Ttsv_numerics.Vec.t ->
  (Ttsv_numerics.Vec.t * Diagnostics.t, failure) result
(** [solve a b] solves [a x = b], escalating through [rungs] (default
    {!default_rungs}).  [shape] declares that the unknowns live on a
    structured tensor grid with the given extents (first dimension
    fastest-varying; the FEM solvers pass [[|nr; nz|]] /
    [[|nx; ny; nz|]]); it never changes the ladder, and only a [Cg_mg]
    rung listed in [rungs] reads it to build its hierarchy — a [Cg_mg]
    rung requested without a [shape] is recorded as
    [Skipped "mg: no structured-grid shape"] and the ladder demotes at
    zero cost.  [tol] (default [1e-10]) is the relative residual
    target; [max_iter] is the per-rung iteration budget of the iterative
    rungs (default [10 * n] each).  [on_iterate] observes every iteration
    of every iterative rung; [stagnation_window] and [divergence_factor]
    are passed through to {!Ttsv_numerics.Iterative} for both iterative
    rungs.  The direct rung builds a pivotless banded LU
    when the bandwidth is narrow, retries with dense partial-pivoting LU
    when the band factorization hits a zero pivot, and accepts the result
    at [max tol 1e-8] (it is the last resort).  [pool] is threaded to the
    iterative rungs' matvec and BLAS-1 kernels; their reductions are
    chunk-deterministic, so pooled and sequential climbs take identical
    paths through the ladder.  An [x0] whose true relative residual is
    already within [tol] is accepted for one matvec before any rung
    builds a preconditioner, and credited to the first of [rungs] at
    zero iterations.  Matrices of order beyond
    a few thousand with a wide band skip the dense fallback rather than
    allocating O(n²).

    [budget], when given, bounds the whole climb: the global budget is
    checked before every rung (an expired one stops the ladder with
    {!Deadline_exceeded} — before the non-interruptible direct rung in
    particular — carrying the best iterate so far), and each rung runs
    under an even {!Ttsv_parallel.Budget.split} of the remaining
    wall-clock so one stagnating rung cannot starve the rest.  The
    overshoot past the deadline is bounded by one Krylov iteration plus
    one residual recompute.

    Under an armed {!Ttsv_parallel.Fault} engine the contract tightens
    rather than loosens: injected matvec NaNs surface as
    [Non_finite]/demotion, injected preconditioner failures as
    [Skipped] attempts, and a [Fault.Injected] exception reaching the
    ladder is contained as a [Skipped] attempt — [solve] never leaks an
    uncaught exception. *)

val solve_exn :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Ttsv_numerics.Vec.t ->
  ?on_iterate:(int -> float -> unit) ->
  ?stagnation_window:int ->
  ?divergence_factor:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Diagnostics.rung list ->
  ?shape:int array ->
  ?budget:Ttsv_parallel.Budget.t ->
  Ttsv_numerics.Sparse.t ->
  Ttsv_numerics.Vec.t ->
  Ttsv_numerics.Vec.t * Diagnostics.t
(** Like {!solve} but raises {!Solve_failed}. *)
