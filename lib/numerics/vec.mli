(** Dense vectors of floats.

    A vector is a plain [float array]; this module gathers the numerical
    primitives the rest of the library needs (BLAS level-1 style operations,
    norms, elementwise maps, comparisons with tolerances).  All binary
    operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a fresh vector of length [n] filled with [x]. *)

val zeros : int -> t
(** [zeros n] is [create n 0.]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [[| f 0; ...; f (n-1) |]]. *)

val copy : t -> t
(** [copy v] is a fresh copy of [v]. *)

val dim : t -> int
(** [dim v] is the length of [v]. *)

val get : t -> int -> float
(** [get v i] is [v.(i)]. *)

val set : t -> int -> float -> unit
(** [set v i x] assigns [v.(i) <- x]. *)

val of_list : float list -> t
(** [of_list xs] converts a list to a vector. *)

val to_list : t -> float list
(** [to_list v] converts a vector to a list. *)

val dot : t -> t -> float
(** [dot x y] is the inner product {%html:Σ%}[x.(i) *. y.(i)]. *)

val pdot : ?pool:Ttsv_parallel.Pool.t -> t -> t -> float
(** Pool-aware inner product.  The summation is chunked with a fixed
    chunk size independent of the pool, and the per-chunk partials are
    folded in chunk order — so the result is {e identical} for any
    domain count, including [?pool:None].  It differs from {!dot} only
    by that reassociation (≲ 1e-15 relative on well-scaled data). *)

val pnorm2 : ?pool:Ttsv_parallel.Pool.t -> t -> float
(** [sqrt (pdot ?pool x x)] — same determinism contract as {!pdot}. *)

val norm2 : t -> float
(** [norm2 x] is the Euclidean norm of [x]. *)

val norm_inf : t -> float
(** [norm_inf x] is the maximum absolute entry of [x]. *)

val norm1 : t -> float
(** [norm1 x] is the sum of absolute entries of [x]. *)

val add : t -> t -> t
(** [add x y] is the elementwise sum. *)

val sub : t -> t -> t
(** [sub x y] is the elementwise difference [x - y]. *)

val scale : float -> t -> t
(** [scale a x] is [a *. x] elementwise. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val paxpy : ?pool:Ttsv_parallel.Pool.t -> float -> t -> t -> unit
(** Pool-aware {!axpy}.  Elementwise with disjoint writes, hence bitwise
    identical to the sequential update for any domain count. *)

val paxpy2 : ?pool:Ttsv_parallel.Pool.t -> float -> t -> t -> t -> t -> unit
(** [paxpy2 a p q x r] performs the fused CG update
    [x <- a*p + x] and [r <- r - a*q] in a single pass (one pool
    dispatch instead of two).  Bitwise identical to the two separate
    {!paxpy} calls [paxpy a p x; paxpy (-.a) q r]. *)

val pxpby : ?pool:Ttsv_parallel.Pool.t -> t -> float -> t -> unit
(** [pxpby z b p] performs the fused direction update [p <- z + b*p] in
    place, in one pooled pass.  Elementwise, hence pool-independent. *)

val scale_in_place : float -> t -> unit
(** [scale_in_place a x] performs [x <- a*x] in place. *)

val map : (float -> float) -> t -> t
(** [map f v] applies [f] elementwise. *)

val map2 : (float -> float -> float) -> t -> t -> t
(** [map2 f x y] applies [f] to corresponding elements. *)

val sum : t -> float
(** [sum v] is the sum of all entries. *)

val all_finite : t -> bool
(** [all_finite v] is [true] when no entry is NaN or infinite. *)

val max_elt : t -> float
(** [max_elt v] is the largest entry.  Raises [Invalid_argument] on the
    empty vector. *)

val min_elt : t -> float
(** [min_elt v] is the smallest entry.  Raises [Invalid_argument] on the
    empty vector. *)

val argmax : t -> int
(** [argmax v] is the index of the largest entry (first occurrence). *)

val mean : t -> float
(** [mean v] is the arithmetic mean.  Raises [Invalid_argument] on the
    empty vector. *)

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
(** [approx_equal ?rtol ?atol x y] tests elementwise closeness:
    [|x.(i) - y.(i)| <= atol + rtol *. |y.(i)|] for every [i].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n] evenly spaced points from [a] to [b]
    inclusive.  Requires [n >= 2]. *)

val pp : Format.formatter -> t -> unit
(** [pp ppf v] prints [v] as [[x0; x1; ...]] with 6 significant digits. *)
