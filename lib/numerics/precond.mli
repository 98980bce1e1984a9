(** Pluggable SPD preconditioners for the Krylov solvers.

    One abstract interface, five constructions, in decreasing order of
    strength on the library's finite-volume conductance matrices:

    - {!band_cholesky} — the exact Cholesky factor of a narrow band.
      Inside CG it converges in one or two iterations; it is admitted
      only when the band is narrow enough that the O(n·bw²) factor
      costs less than the iterations it saves, which holds for the 2-D
      unit cell (numbered radius-fastest, so bw = nr) and fails for
      every 3-D stack.
    - {!mg} — one symmetric geometric-multigrid V-cycle per application
      (see {!Multigrid}).  Its iteration counts stay near-constant as
      the grid refines; needs the grid [shape], so it is only available
      where one is known.  Every kernel it runs is embarrassingly
      parallel, unlike the triangular sweeps below.  Its setup plus
      cycles still cost more wall time than an {!ic0} solve on every
      benchmarked grid, so the solver ladders use it only on request.
    - {!ic0} — incomplete Cholesky with zero fill.  Strongest
      shape-oblivious option on wide bands: on the
      fig5/Table I grids it cuts CG iteration counts by roughly an order
      of magnitude over Jacobi.  Construction can {e break down} (a
      non-positive pivot) on SPD matrices that are not H-matrices; the
      constructor retries internally with growing relative diagonal
      shifts and only then reports an error.
    - {!ssor} — symmetric successive over-relaxation,
      [M = (D + wL) D^-1 (D + wU) / (w (2 - w))].  Matrix-free (no
      stored factorization, just two O(nnz) triangular sweeps over A's
      CSR arrays), never breaks down on a nonzero diagonal, usually
      two-to-four times fewer iterations than Jacobi.  The rung to fall
      back on when IC(0) cannot be built.
    - {!jacobi} — diagonal scaling.  Weakest, but total: defined for
      every matrix, zero construction cost.

    Applications are deterministic: the triangular sweeps of {!ic0} and
    {!ssor} are sequential by data dependence (and identical under any
    pool), {!band_cholesky} runs its two independent parts' sweeps on a
    pool with unchanged arithmetic, and the pooled {!jacobi} scaling is
    elementwise — so a preconditioned solve takes the same iteration
    path with or without a domain pool. *)

type t

val name : t -> string
(** ["chol"], ["mg"], ["ic0"], ["ssor"] or ["jacobi"]. *)

val dim : t -> int
(** The order of the matrix the preconditioner was built from. *)

val apply : ?pool:Ttsv_parallel.Pool.t -> t -> Vec.t -> Vec.t
(** [apply m r] computes [M^-1 r] (a fresh vector).  [pool] is used only
    by the embarrassingly parallel {!jacobi} scaling, the two parts of
    {!band_cholesky} and the {!mg} cycle; the result never depends on
    it.  Raises [Invalid_argument] on a dimension
    mismatch. *)

val jacobi : Sparse.t -> t
(** Diagonal (Jacobi) scaling.  Total: zero or denormal diagonal entries
    scale by 1 instead of dividing by ~0. *)

val jacobi_of_diagonal : Vec.t -> t
(** {!jacobi} from an already-extracted diagonal, for callers that have
    one (avoids a second [Sparse.diagonal] pass). *)

val ssor : ?omega:float -> Sparse.t -> (t, string) result
(** SSOR preconditioner with relaxation factor [omega] (default [1.0],
    i.e. symmetric Gauss–Seidel; must be in (0, 2), else
    [Invalid_argument]).  [Error] when the matrix is not square or has a
    (near-)zero diagonal entry. *)

val ssor_omega : t -> float option
(** The relaxation factor, for SSOR preconditioners. *)

val default_shifts : float list
(** The relative diagonal shifts {!ic0} tries in order:
    [[0.; 1e-3; 1e-2; 1e-1; 1.]]. *)

val ic0 :
  ?shifts:float list -> ?budget:Ttsv_parallel.Budget.t -> Sparse.t -> (t, string) result
(** Incomplete Cholesky factorization with zero fill on the lower
    triangle of [a].  On a non-positive pivot the factorization is
    retried from scratch with the next relative diagonal shift in
    [shifts] (the diagonal becomes [a_ii * (1 + shift)]); [Error] when
    every shift breaks down, when the matrix is not square, or when some
    row has no stored diagonal entry.  [budget] is polled between shift
    retries (each is a full refactorization): an expired budget reports
    as [Error "budget expired (...)"], and the caller demotes exactly as
    for a breakdown.

    Every fallible constructor ({!band_cholesky}, {!ic0}, {!ssor},
    {!mg}) doubles as the {!Ttsv_parallel.Fault} ["precond"] chaos site:
    when armed and fired they return [Error "injected construction
    fault"]. *)

val band_cholesky :
  ?pool:Ttsv_parallel.Pool.t ->
  ?budget:Ttsv_parallel.Budget.t ->
  Sparse.t ->
  (t, string) result
(** The exact Cholesky factor [L] of [a]'s band ([a = L Lᵀ]), stored as
    flat lower-band arrays of about [n·(bw+1)] floats; each application is
    one forward and one backward band sweep, O(n·bw).  Meant for the
    symmetric positive definite conductance matrices: only [a]'s lower
    triangle is read.

    The factor is a two-way dissection: the [bw] middle rows separate
    the band into a lower and an upper part, factored as independent
    bands (the upper one in descending order), and a dense [bw×bw]
    Cholesky of the separator's Schur complement closes it.  A band too
    short for each part to keep [2·bw] rows ([n < 5·bw]) is factored as
    one part.  The parts, and each application's forward and backward
    sweeps over them, run as two-task [pool] kernels: concurrently when
    [pool] has at least two domains and the caller is not already a
    pool worker.  The split depends only on [n] and [bw], so the factor
    and its applications are bitwise identical with or without a pool.

    The band is admitted only when it fits {!Banded.fits} (the direct
    rung's storage cap) and [bw·bw <= n], which bounds the O(n·bw²)
    factorization by about [n²/2] multiply-adds.  [Error] when it is not
    admitted (this costs one O(n) bandwidth scan), when the matrix is
    not square, on a non-positive pivot (reporting the row of [a] whose
    pivot failed: the lower part's first, then the upper part's, then
    the separator's), when the ["precond"] fault fires, and when
    [budget] expires: each part polls it once per block of rows costing
    about one matvec, and ticks one work unit per such block, and the
    separator polls it once more, so a work cap stops the factor iff the
    parts need at least that much work, pooled or not. *)

val ic0_shift : t -> float option
(** The diagonal shift the successful IC(0) factorization used ([0.]
    when the unshifted factorization went through); [None] for other
    kinds. *)

val mg :
  ?pool:Ttsv_parallel.Pool.t ->
  ?budget:Ttsv_parallel.Budget.t ->
  shape:int array ->
  Sparse.t ->
  (t, string) result
(** Geometric-multigrid preconditioner: each application is one
    symmetric V(ν,ν) cycle of {!Multigrid.cycle} on the hierarchy built
    by {!Multigrid.build} (Chebyshev-accelerated line smoothing,
    Galerkin coarse operators, semicoarsening on anisotropic grids), so
    the preconditioner is itself symmetric positive definite and safe
    inside CG.  [shape] gives the
    tensor-grid extents, first dimension fastest-varying — [[|nr; nz|]]
    for the 2-D unit cell, [[|nx; ny; nz|]] for the 3-D stack.

    [Error] on a shape/matrix mismatch or any hierarchy failure, and the
    constructor is a ["precond"] chaos site like {!ic0}/{!ssor}.
    [budget] is polled during setup {e and} captured into the returned
    preconditioner: an expiry mid-V-cycle raises
    {!Ttsv_parallel.Budget.Expired} from {!apply}, which the Robust
    ladder converts to a typed deadline failure with the best iterate.
    Applications are bitwise deterministic across pool sizes. *)

val mg_levels : t -> int option
(** Number of levels in the multigrid hierarchy; [None] for other
    kinds. *)
