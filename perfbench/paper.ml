(* The experiments layer, which no served request enters: one
   regeneration of Table I plus Fig. 5 at the default resolution — the
   entry points the `figures` subcommand calls — timed in the benchmark
   process and held to the values frozen in frozen.ml and to the
   paper's shape. *)

open Perfbench
module E = Ttsv_experiments

let close = Oracle.close ~rel:Frozen.rel_tol

let row rows label = List.find_opt (fun (row : E.Table1.row) -> row.E.Table1.label = label) rows

let check_calibration (c : Ttsv_core.Coefficients.t) =
  if close Frozen.k1 c.Ttsv_core.Coefficients.k1 && close Frozen.k2 c.Ttsv_core.Coefficients.k2 then []
  else
    [
      Printf.sprintf "calibration gave k1=%.17g k2=%.17g" c.Ttsv_core.Coefficients.k1
        c.Ttsv_core.Coefficients.k2;
    ]

(* Problems with one regeneration: the frozen values, then the paper's
   shape — Model B's error falls with n, and the 1-D model is less
   accurate than Model A and every Model B past a single segment
   (B(1) lumps the whole via into one node and is worse than 1-D). *)
let check rows (fig : E.Report.figure) =
  let frozen_rows =
    List.concat_map
      (fun (label, max_err, avg_err) ->
        match row rows label with
        | None -> [ "Table I has no row " ^ label ]
        | Some x when close max_err x.E.Table1.max_err && close avg_err x.E.Table1.avg_err -> []
        | Some x ->
          [
            Printf.sprintf "Table I %s: errors %.17g/%.17g, frozen %.17g/%.17g" label
              x.E.Table1.max_err x.E.Table1.avg_err max_err avg_err;
          ])
      Frozen.table1
  in
  let frozen_fig =
    List.concat_map
      (fun (label, ys) ->
        match List.find_opt (fun (s : E.Report.series) -> s.E.Report.label = label) fig.E.Report.series with
        | None -> [ "Fig. 5 has no series " ^ label ]
        | Some s
          when Array.length s.E.Report.ys = Array.length ys && Array.for_all2 close ys s.E.Report.ys ->
          []
        | Some _ -> [ "Fig. 5 " ^ label ^ " differs from the frozen curve" ])
      Frozen.fig5
  in
  let errs labels =
    List.filter_map (fun l -> Option.map (fun x -> (x.E.Table1.max_err, x.E.Table1.avg_err)) (row rows l)) labels
  in
  let rec falling = function a :: (b :: _ as rest) -> a > b && falling rest | _ -> true in
  let b = errs [ "B (1)"; "B (20)"; "B (100)"; "B (500)" ] in
  let shape_b =
    if List.length b = 4 && falling (List.map fst b) && falling (List.map snd b) then []
    else [ "Table I: Model B error does not fall with n" ]
  in
  let shape_1d =
    match errs [ "1-D" ] with
    | [ (mx, avg) ] when List.for_all (fun (m, a) -> mx > m && avg > a)
                           (errs [ "B (20)"; "B (100)"; "B (500)"; "A (fitted)"; "A (paper k)" ]) -> []
    | _ -> [ "Table I: 1-D is not the least accurate model" ]
  in
  frozen_rows @ frozen_fig @ shape_b @ shape_1d

(* repro.* and the problems found.  The calibration goes first: the
   library memoizes it, so only the first call in a process pays it,
   as every `figures` invocation does. *)
let probe () =
  let coeffs, calibrate_s = Clock.time E.Reference.block_coefficients in
  let rows, table1_s = Clock.time (fun () -> E.Table1.run ()) in
  let fig, fig5_s = Clock.time (fun () -> E.Fig5.run ()) in
  ( [ ("repro.table1_s", table1_s); ("repro.fig5_s", fig5_s); ("repro.calibrate_s", calibrate_s) ],
    check_calibration coeffs @ check rows fig )
