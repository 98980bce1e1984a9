(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one provenance line (host, workload properties, timing
   detail) and, last, the result line: correct/attempted/failed and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Run it from the repository root through perfbench/run.sh, which
   builds the server first. *)

open Perfbench
module J = Ttsv_obs.Json

let usage = "main.exe --workload serve_cold|serve_hot --seed N --seconds S --trace 0|1"

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> Ok acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some seed -> go { acc with seed } rest | None -> Error n)
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0. -> go { acc with seconds } rest
      | _ -> Error s)
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | arg :: _ -> Error arg
  in
  go { workload = ""; seed = 1; seconds = 10.; trace = false } argv

(* every run must end inside the caller's budget, children included *)
let deadline_s = 170

let main a =
  let out_dir = Serve_bench.out_dir in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spec =
    match a.workload with
    | "serve_cold" -> Serve_bench.cold
    | "serve_hot" -> Serve_bench.hot
    | w -> failwith ("unknown workload " ^ w ^ "; " ^ usage)
  in
  let outcome = Serve_bench.run spec ~seed:a.seed ~seconds:a.seconds ~traced:a.trace in
  let expected = if a.trace then Catalog.per_layer else Catalog.end_to_end in
  let result = Catalog.result_line ~expected outcome in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("perfbench", J.String a.workload);
             ("seed", J.Int a.seed);
             ("seconds", J.Float a.seconds);
             ("trace", J.Bool a.trace);
             ("host", Host.block ());
           ]
          @ outcome.Catalog.provenance)));
  print_endline result

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | Error arg ->
    prerr_endline ("perfbench: bad argument " ^ arg ^ "\nusage: " ^ usage);
    exit 2
  | Ok a ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "perfbench: deadline reached";
           Proc.kill_all ();
           exit 3));
    ignore (Unix.alarm deadline_s);
    (match main a with
    | () -> ()
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      Proc.kill_all ();
      exit 2);
    ignore (Unix.alarm 0)
