(* Self-tests of the benchmark: its inputs, its names, its statistics
   and its correctness oracle. *)

open Perfbench
module P = Ttsv_service.Protocol
module J = Ttsv_obs.Json

let cold_lines seed n =
  let c = Gen.cold seed in
  String.concat "\n" (List.init n (fun _ -> Gen.line (Gen.next_cold c)))

let hot_lines seed n =
  let h = Gen.hot seed in
  String.concat "\n"
    (List.concat (List.init n (fun _ -> Array.to_list (Array.map Gen.line (Gen.next_hot h ~size:64)))))

let same_seed_same_bytes () =
  Alcotest.(check string) "cold, seed 7" (cold_lines 7 300) (cold_lines 7 300);
  Alcotest.(check string) "hot, seed 7" (hot_lines 7 6) (hot_lines 7 6);
  Alcotest.(check bool) "cold, seeds 7 and 8 differ" false (cold_lines 7 50 = cold_lines 8 50);
  Alcotest.(check bool) "hot, seeds 7 and 8 differ" false (hot_lines 7 2 = hot_lines 8 2)

let requests items = List.filter_map (function Gen.Request r -> Some r | Gen.Malformed _ -> None) items

let cold_mix () =
  let c = Gen.cold 3 in
  let items = List.init 500 (fun _ -> Gen.next_cold c) in
  let solves = List.concat_map (fun r -> Gen.solves_of_kind r.P.kind) (requests items) in
  let keys = List.sort_uniq compare (List.map P.solve_key solves) in
  Alcotest.(check int) "every cold request is a distinct key" 500 (List.length keys);
  List.iteri
    (fun b _ ->
      let block = List.filteri (fun i _ -> i / Gen.block = b) solves in
      Alcotest.(check int)
        (Printf.sprintf "block %d has %d resolution-2 requests" b Gen.res2_per_block)
        Gen.res2_per_block
        (List.length (List.filter (fun s -> s.P.resolution = 2) block)))
    (List.init (500 / Gen.block) Fun.id)

let hot_fits_caches () =
  let h = Gen.hot 5 in
  let items = List.concat (List.init 40 (fun _ -> Array.to_list (Gen.next_hot h ~size:64))) in
  let solves = List.concat_map (fun r -> Gen.solves_of_kind r.P.kind) (requests items) in
  let keys = List.sort_uniq compare (List.map P.solve_key solves) in
  Alcotest.(check bool) "working set within the 32-entry caches" true (List.length keys <= 32);
  let malformed = List.length items - List.length (requests items) in
  Alcotest.(check int) "one malformed line per batch" 40 malformed

let names_valid () =
  List.iter
    (fun m -> Alcotest.(check bool) ("valid name " ^ m.Catalog.name) true (Catalog.valid_name m.Catalog.name))
    (Catalog.end_to_end @ Catalog.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Catalog.valid_name bad))
    [ ""; ".starts_with_dot"; "has space"; "slash/"; String.make 65 'a' ];
  let all = List.map (fun m -> m.Catalog.name) (Catalog.end_to_end @ Catalog.per_layer) in
  Alcotest.(check int) "names are unique" (List.length all) (List.length (List.sort_uniq compare all))

(* BENCHMARK.json (the first argument, default ./BENCHMARK.json) names
   exactly the catalogue's workloads and metrics *)
let benchmark_json = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json"

let benchmark_json_matches () =
  let text = In_channel.with_open_text benchmark_json In_channel.input_all in
  let j = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let list key = match J.member key j with Some (J.List l) -> l | _ -> Alcotest.fail key in
  let str key o = match Option.bind (J.member key o) J.to_string_opt with Some s -> s | None -> Alcotest.fail key in
  let pairs key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  let ours ms = List.map (fun m -> (m.Catalog.name, m.Catalog.unit)) ms in
  Alcotest.(check (list (pair string string))) "end_to_end" (ours Catalog.end_to_end) (pairs "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" (ours Catalog.per_layer) (pairs "per_layer");
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun w -> (w.Catalog.workload, w.Catalog.why)) Catalog.workloads)
    (List.map (fun o -> (str "name" o, str "why" o)) (list "workloads"))

let percentiles () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-12)) "median" 50.5 (Stats.median (xs 100));
  Alcotest.(check bool) "p95 of 199 samples refused" true (Result.is_error (Stats.tail ~q:0.95 (xs 199)));
  Alcotest.(check bool) "p95 of 200 samples accepted" true (Result.is_ok (Stats.tail ~q:0.95 (xs 200)));
  Alcotest.(check bool) "p99 of 999 samples refused" true (Result.is_error (Stats.tail ~q:0.99 (xs 999)));
  Alcotest.(check (float 1e-9)) "p95 of 1..200" 190.05
    (match Stats.tail ~q:0.95 (xs 200) with Ok v -> v | Error e -> Alcotest.fail e)

(* a small stream and its correct answers, built with the protocol's
   own encoder *)
let stream () =
  let c = Gen.cold 11 in
  let a = Gen.next_cold c and b = Gen.next_cold c in
  let bad = Gen.Malformed "not a request" in
  let answer = function
    | Gen.Request r ->
      P.response_to_string
        {
          P.request_id = Some r.P.id;
          result =
            Ok
              (P.Solved
                 {
                   P.max_rise_k = 30.;
                   iterations = 12;
                   residual = 1e-11;
                   rung = "cg-mg";
                   cache = { P.operator_hit = false; precond_hit = false; warm = P.Cold };
                   wall_s = 0.01;
                 });
        }
    | Gen.Malformed _ ->
      P.response_to_string
        { P.request_id = None; result = Error (P.error P.Bad_json "not valid JSON") }
  in
  let items = [| a; bad; b |] in
  (items, Array.map answer items)

let failures verdicts = Array.fold_left (fun n v -> if Result.is_error v then n + 1 else n) 0 verdicts

let oracle_in_place () =
  let items, answers = stream () in
  Alcotest.(check int) "correct stream passes" 0 (failures (Oracle.check_stream items answers));
  let missing = [| answers.(0); answers.(2) |] in
  Alcotest.(check bool) "missing answer rejected" true (failures (Oracle.check_stream items missing) > 0);
  let reordered = [| answers.(2); answers.(1); answers.(0) |] in
  Alcotest.(check bool) "reordered answers rejected" true
    (failures (Oracle.check_stream items reordered) > 0);
  let moved_bad = [| answers.(1); answers.(0); answers.(2) |] in
  Alcotest.(check bool) "bad_json out of place rejected" true
    (failures (Oracle.check_stream items moved_bad) > 0);
  let extra = Array.append answers [| answers.(1) |] in
  Alcotest.(check bool) "extra answer rejected" true (failures (Oracle.check_stream items extra) > 0)

let decode_round_trip () =
  let _, answers = stream () in
  Array.iter
    (fun line ->
      match Oracle.decode line with
      | Ok r -> Alcotest.(check string) "re-encodes byte for byte" line (P.response_to_string r)
      | Error e -> Alcotest.fail e)
    answers

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same bytes" `Quick same_seed_same_bytes;
          Alcotest.test_case "cold mix and distinct keys" `Quick cold_mix;
          Alcotest.test_case "hot working set fits the caches" `Quick hot_fits_caches;
        ] );
      ( "names",
        [
          Alcotest.test_case "metric names are valid" `Quick names_valid;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick benchmark_json_matches;
        ] );
      ("stats", [ Alcotest.test_case "tail needs ten samples beyond" `Quick percentiles ]);
      ( "oracle",
        [
          Alcotest.test_case "answers checked in place" `Quick oracle_in_place;
          Alcotest.test_case "response decode round-trips" `Quick decode_round_trip;
        ] );
    ]
