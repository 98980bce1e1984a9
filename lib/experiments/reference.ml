module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Params = Ttsv_core.Params
module Calibrate = Ttsv_core.Calibrate
module Units = Ttsv_physics.Units

let max_rise ?pool ?(resolution = 2) stack =
  Solver.max_rise (Solver.solve ?pool (Problem.of_stack ~resolution stack))

let fit_on stacks =
  let samples =
    List.map (fun stack -> { Calibrate.stack; reference = max_rise stack }) stacks
  in
  (Calibrate.fit samples).Calibrate.coefficients

let block_coefficients =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some c -> c
    | None ->
      let stacks = List.map (fun tl -> Params.fig5_stack (Units.um tl)) [ 0.5; 1.5; 3. ] in
      let c = fit_on stacks in
      memo := Some c;
      c

let calibrate_for stack = fit_on [ stack ]
