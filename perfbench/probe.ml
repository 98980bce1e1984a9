(* Bench-side timers around the public entry points of single layers
   (fem assembly, preconditioner setup, the compact models, the FV
   reference), run outside every timed region on a workload's own
   geometries. *)

module P = Ttsv_service.Protocol
module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Coefficients = Ttsv_core.Coefficients
module Model_1d = Ttsv_core.Model_1d
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Grid = Ttsv_fem.Grid
module Precond = Ttsv_numerics.Precond
module Clock = Perfbench.Clock
module Stats = Perfbench.Stats

let stack_of (g : P.geometry) =
  match
    Params.block_checked ~r:(Units.um g.P.radius_um) ~t_liner:(Units.um g.P.liner_um)
      ~t_ild:(Units.um g.P.ild_um) ~t_bond:(Units.um g.P.bond_um) ~t_si23:(Units.um g.P.tsi_um)
      ~t_si1:(Units.um g.P.tsi1_um) ~l_ext:(Units.um g.P.lext_um) ()
  with
  | Ok stack -> stack
  | Error _ -> invalid_arg "Probe.stack_of: geometry outside Params.block_checked bounds"

(* the oracle's answer: a fresh, sequential solve through the default
   ladder, sharing nothing with the served path but the library *)
let fv_rise ~resolution stack =
  Clock.time (fun () -> Solver.max_rise (Solver.solve (Problem.of_stack ~resolution stack)))

let ms = Clock.ms

let operator ~resolution stack =
  let p = Problem.of_stack ~resolution stack in
  (Solver.assemble p, [| Grid.nr p.Problem.grid; Grid.nz p.Problem.grid |], Problem.cell_count p)

(* (resolution, stack) pairs -> fem.* *)
let fem cases =
  let times, cells =
    List.split
      (List.map
         (fun (resolution, stack) ->
           let (_, _, n), dt = Clock.time (fun () -> operator ~resolution stack) in
           (ms dt, float_of_int n))
         cases)
  in
  [ ("fem.assemble_ms", Stats.median times); ("fem.cells", Stats.mean cells) ]

let setup_ms f =
  let r, dt = Clock.time f in
  match r with Ok _ -> ms dt | Error e -> failwith ("preconditioner setup failed: " ^ e)

(* per-resolution setup cost of both top rungs on the same operators:
   where the mg/IC(0) crossover sits *)
let precond stacks =
  List.concat_map
    (fun resolution ->
      let mg, ic0 =
        List.split
          (List.map
             (fun stack ->
               let a, shape, _ = operator ~resolution stack in
               (setup_ms (fun () -> Precond.mg ~shape a), setup_ms (fun () -> Precond.ic0 a)))
             stacks)
      in
      [
        (Printf.sprintf "precond.mg_setup_ms.res%d" resolution, Stats.median mg);
        (Printf.sprintf "precond.ic0_setup_ms.res%d" resolution, Stats.median ic0);
      ])
    [ 1; 2 ]

let segment_counts = [ 1; 20; 100; 500 ]

(* the compact models on the same stacks, median ms per evaluation *)
let core stacks =
  let median_ms f = Stats.median (List.map (fun s -> ms (Clock.per_call (fun () -> f s))) stacks) in
  [
    ("core.model_1d_ms", median_ms (fun s -> Model_1d.max_rise (Model_1d.solve s)));
    ( "core.model_a_ms",
      median_ms (fun s -> Model_a.max_rise (Model_a.solve ~coeffs:Coefficients.paper_block s)) );
  ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "core.model_b_ms.n%d" n,
          median_ms (fun s -> Model_b.max_rise (Model_b.solve_n s n)) ))
      segment_counts

(* The provenance entry naming the metrics a probe measured because the
   workload's own path never enters their layer: the result line must
   carry every per-layer metric, but these are not the workload's
   figures. *)
let off_path metrics =
  ("off_path_probes", Ttsv_obs.Json.List (List.map (fun (name, _) -> Ttsv_obs.Json.String name) metrics))
