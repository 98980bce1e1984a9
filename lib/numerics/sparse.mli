(** Sparse matrices in compressed-sparse-row (CSR) form.

    Assembly happens through a mutable {!builder} of (row, col, value)
    triplets — duplicate entries are summed, which matches the stamping
    discipline of finite-volume and network assembly — and is then frozen
    into an immutable CSR matrix for fast products. *)

type t
(** An immutable CSR matrix. *)

type builder
(** A mutable triplet accumulator. *)

val builder : ?hint:int -> int -> int -> builder
(** [builder ?hint rows cols] creates an empty accumulator; [hint] is the
    expected number of nonzeros. *)

val add : builder -> int -> int -> float -> unit
(** [add b i j x] accumulates [x] into entry [(i, j)].  Raises
    [Invalid_argument] when the indices are out of range. *)

val finalize : builder -> t
(** [finalize b] sums duplicates and freezes the matrix.  Entries that sum
    to exactly [0.] are kept (structural nonzeros), which keeps symbolic
    structure stable across parameter sweeps. *)

val rows : t -> int
val cols : t -> int

val nnz : t -> int
(** Number of stored entries. *)

val of_csr :
  nrows:int ->
  ncols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  t
(** [of_csr ~nrows ~ncols ~row_ptr ~col_idx ~values] adopts pre-built
    CSR arrays (no copy) — the fast path for assemblers that construct
    rows directly, e.g. the chunked FEM assembly.  Validates monotone
    [row_ptr] and strictly increasing in-range columns per row; raises
    [Invalid_argument] otherwise. *)

val mat_vec : t -> Vec.t -> Vec.t
(** [mat_vec m x] is the product [m * x]. *)

val mul : ?pool:Ttsv_parallel.Pool.t -> t -> Vec.t -> Vec.t
(** Pool-aware {!mat_vec}: rows are computed across the pool in chunks.
    Each row's accumulation order is unchanged and rows land in disjoint
    slots, so the result is bitwise identical to [mat_vec m x] for any
    domain count. *)

val residual_norm2 : t -> Vec.t -> Vec.t -> float
(** [residual_norm2 m b x] is [Vec.norm2 (Vec.sub b (mat_vec m x))],
    bit for bit, in one pass that allocates nothing.  Raises
    [Invalid_argument] on a dimension mismatch. *)

val diagonal : t -> Vec.t
(** [diagonal m] extracts the main diagonal (zeros where absent). *)

val csr : t -> int array * int array * float array
(** [csr m] is [(row_ptr, col_idx, values)] — the internal CSR arrays,
    with columns sorted strictly increasing within each row.  They are
    {e the} backing store, not a copy: treat them as read-only.  Used by
    factorizations ({!Precond}) that need O(nnz) row traversal without
    closure allocation per entry. *)

val get : t -> int -> int -> float
(** [get m i j] is the stored value at [(i, j)], or [0.] if absent.
    O(row nnz). *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row m i f] applies [f col value] to every stored entry of row
    [i] in ascending column order.  O(row nnz) — the building block for
    sweeps and scans that must not probe all [n] columns. *)

val bandwidth : t -> int
(** [bandwidth m] is the half-bandwidth [max |i - j|] over stored
    entries (0 for a diagonal or empty matrix). *)

val all_finite : t -> bool
(** [all_finite m] is [true] when no stored entry is NaN or infinite. *)

val to_dense : t -> Dense.t
(** Expands to dense form (testing/debugging only). *)

val of_dense : ?drop_tol:float -> Dense.t -> t
(** [of_dense ?drop_tol m] converts, dropping entries with absolute value
    [<= drop_tol] (default [0.], i.e. keep all nonzeros). *)

val is_symmetric : ?tol:float -> t -> bool
(** Structural + numeric symmetry check used by the CG preconditions. *)

val transpose : t -> t
