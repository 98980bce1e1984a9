(* Sample lists over the library's order statistics (linear
   interpolation between closest ranks). *)
module N = Ttsv_numerics.Stats

let median xs = N.median (Array.of_list xs)
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A tail percentile is only reported when at least [min_beyond]
   samples lie beyond it; a p95 over 40 samples is the second-largest
   value dressed up as a statistic. *)
let min_beyond = 10

let beyond ~q n = int_of_float ((float_of_int n *. (1. -. q)) +. 1e-9)

let tail ~q xs =
  let n = List.length xs in
  let b = beyond ~q n in
  if b < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; at least %d are needed"
         (100. *. q) n b min_beyond)
  else Ok (N.percentile (100. *. q) (Array.of_list xs))

type summary = { median : float; tail_q : float; tail : float option; n : int }

(* Median plus the highest of p99/p95/p90 that the sample count
   supports, for the provenance record. *)
let summarize xs =
  let n = List.length xs in
  let rec pick = function
    | [] -> (0.5, None)
    | q :: rest -> ( match tail ~q xs with Ok v -> (q, Some v) | Error _ -> pick rest)
  in
  let tail_q, tail = pick [ 0.99; 0.95; 0.9 ] in
  { median = (if n = 0 then Float.nan else median xs); tail_q; tail; n }

let summary_to_json s =
  let module J = Ttsv_obs.Json in
  J.Obj
    [
      ("median", J.Float s.median);
      ("tail_q", J.Float s.tail_q);
      ("tail", match s.tail with Some v -> J.Float v | None -> J.Null);
      ("n", J.Int s.n);
    ]
