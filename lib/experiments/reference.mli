(** The experiments' numeric reference (the paper's "FEM" column).

    Wraps the finite-volume solver with the experiment suite's default
    meshing and exposes the calibration runs the paper performs against
    it. *)

val max_rise : ?pool:Ttsv_parallel.Pool.t -> ?resolution:int -> Ttsv_geometry.Stack.t -> float
(** [max_rise stack] is the FV Max ΔT at mesh [resolution]
    (default 2 — mesh-converged to well under a percent for the paper's
    block, see the convergence ablation).  [pool] runs the solve's
    kernels on its domains; the result is bitwise identical without
    it. *)

val block_coefficients : unit -> Ttsv_core.Coefficients.t
(** Model A coefficients fitted against the FV solver on three liner
    sweep points of the paper's block — the reproduction of the paper's
    "k1 = 1.3, k2 = 0.55" calibration.  Computed once and memoized. *)

val calibrate_for : Ttsv_geometry.Stack.t -> Ttsv_core.Coefficients.t
(** [calibrate_for stack] fits Model A's coefficients on that single
    geometry (the paper's case-study procedure: "the fitting coefficients
    are determined by the simulation of a block of the investigated
    circuit"). *)
