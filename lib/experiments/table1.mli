(** Table I — error and runtime vs. number of segments in Model B.

    Over the Fig. 5 liner sweep, reports for Model B(1), B(20), B(100),
    B(500), Model A (both fitted and paper coefficients) and the 1-D
    model: the maximum and average relative error against the FV
    reference and the median solve time in milliseconds.

    Expected shape (paper's Table I): Model B's error falls
    monotonically with the segment count while its runtime grows; Model
    A sits near the best Model B at negligible cost; the 1-D model is
    the least accurate. *)

type row = {
  label : string;
  max_err : float;
  avg_err : float;
  time_ms : float option;  (** [None] for the FV reference row *)
}

val run : ?pool:Ttsv_parallel.Pool.t -> ?resolution:int -> unit -> row list
(** [pool] runs each FV reference solve's kernels on its domains (the
    band-Cholesky factor's two halves); the rows are bitwise identical
    without it, timing column aside. *)

val to_table : row list -> Report.table

val print : ?pool:Ttsv_parallel.Pool.t -> ?resolution:int -> Format.formatter -> unit -> unit
