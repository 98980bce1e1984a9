(* serve_cold and serve_hot: one single-threaded client drives the built
   `ttsv_cli serve` binary over one pipe in a closed loop — the next
   batch is sent only once every answer to the previous one is back. *)

open Perfbench
module P = Ttsv_service.Protocol
module J = Ttsv_obs.Json

let exe = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "ttsv_cli.exe" ]
let out_dir = Filename.concat "perfbench" "_out"

(* the engine's default capacities (ttsv_cli serve flags) *)
let capacities = [ ("operators", 32); ("preconds", 32); ("solutions", 64) ]

type spec = {
  name : string;
  batch : int;  (** lines per exchange = the server's --batch *)
  warmup : int;  (** untimed exchanges before the clock starts *)
  traced : int;  (** timed exchanges of one traced-run session *)
  slice : int;  (** exchanges per throughput slice *)
  oracle : [ `Sample of int | `Every_key ];
  make : int -> unit -> Gen.item array;  (** seed -> next exchange *)
}

let cold =
  {
    name = "serve_cold";
    batch = 1;
    warmup = 3;
    traced = 60;
    slice = 2 * Gen.block;
    oracle = `Sample 12;
    make =
      (fun seed ->
        let c = Gen.cold seed in
        fun () -> [| Gen.next_cold c |]);
  }

let hot_batch = 64

let hot =
  {
    name = "serve_hot";
    batch = hot_batch;
    warmup = 2;
    traced = 30;
    slice = 16;
    oracle = `Every_key;
    make =
      (fun seed ->
        let h = Gen.hot seed in
        fun () -> Gen.next_hot h ~size:hot_batch);
  }

type exchange = {
  items : Gen.item array;
  answers : string array;
  rtt : float;  (** first byte sent -> last answer read, s *)
  latencies : float list;  (** per well-formed request, s *)
}

type session = { warm : exchange list; timed : exchange list; rss_mb : float; exit : (unit, string) result }

let is_request = function Gen.Request _ -> true | Gen.Malformed _ -> false

let exchange srv items =
  let lines = Array.to_list (Array.map Gen.line items) in
  let n = Array.length items in
  let answers = Array.make n "" and at = Array.make n 0. in
  let t0 = Clock.now () in
  Proc.send srv lines;
  let rec read i =
    if i = n then n
    else
      match Proc.recv srv with
      | Some l ->
        answers.(i) <- l;
        at.(i) <- Clock.now ();
        read (i + 1)
      | None -> i
  in
  let got = read 0 in
  let latencies =
    List.filter_map
      (fun i -> if is_request items.(i) then Some (at.(i) -. t0) else None)
      (List.init got Fun.id)
  in
  {
    items;
    answers = Array.sub answers 0 got;
    rtt = (if got > 0 then at.(got - 1) else Clock.now ()) -. t0;
    latencies;
  }

let complete e = Array.length e.answers = Array.length e.items

let server_args spec trace =
  [ "serve"; "--batch"; string_of_int spec.batch ]
  @ match trace with None -> [] | Some path -> [ "--trace"; path; "--metrics" ]

(* One server process: warm-up, then timed exchanges until [stop n t]
   (n exchanges done, t seconds since the clock started).  Peak RSS is
   read after the last answer and before stdin closes. *)
let session spec ~seed ~trace ~stop =
  let next = spec.make seed in
  let srv =
    Proc.spawn ~stderr_to:(Filename.concat out_dir (spec.name ^ ".stderr")) exe
      (server_args spec trace)
  in
  (* stops early when the server stops answering *)
  let rec loop stop acc n t0 =
    match acc with
    | e :: _ when not (complete e) -> List.rev acc
    | _ when stop n (Clock.now () -. t0) -> List.rev acc
    | _ -> loop stop (exchange srv (next ()) :: acc) (n + 1) t0
  in
  let warm = loop (fun n _ -> n >= spec.warmup) [] 0 (Clock.now ()) in
  let timed = if List.for_all complete warm then loop stop [] 0 (Clock.now ()) else [] in
  let rss_mb = Proc.peak_rss_mb srv.Proc.pid in
  let exit =
    match Proc.finish srv with
    | Ok "" -> Ok ()
    | Ok _ -> Error "output after the last answer"
    | Error e -> Error ("server " ^ e)
  in
  { warm; timed; rss_mb; exit }

(* set-up: spawn -> the answer to one malformed line (process start,
   pool spawn, first decode; no solve) *)
let setup_probe spec ~seed k =
  let item = Gen.Malformed (Gen.malformed (Rng.make ((seed * 7919) + k)) (String.make 40 '{')) in
  let t0 = Clock.now () in
  let srv =
    Proc.spawn ~stderr_to:(Filename.concat out_dir (spec.name ^ ".setup.stderr")) exe
      (server_args spec None)
  in
  Proc.send srv [ Gen.line item ];
  close_out srv.Proc.to_child;
  let answer = Proc.recv srv in
  let dt = Clock.now () -. t0 in
  let exit = Proc.finish srv in
  let verdict =
    match (answer, exit) with
    | Some line, Ok "" -> Result.map ignore (Oracle.check_one item line)
    | None, _ -> Error "setup probe: no answer"
    | _, Ok _ -> Error "setup probe: output after the answer"
    | _, Error e -> Error ("setup probe: server " ^ e)
  in
  (dt, verdict)

let n_setup = 31

(* lines a timed run sends at least: a p95 needs 200 requests *)
let min_lines = 250

(* ------------------------------------------------------------- checking *)

type tally = { mutable attempted : int; mutable failures : string list; mutable failed : int }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.failures < 10 then tally.failures <- msg :: tally.failures

(* Stream check of every exchange; returns the decoded well-formed
   answers as (request kind, payload). *)
let check_exchanges tally exchanges =
  List.concat_map
    (fun e ->
      let verdicts = Oracle.check_stream e.items e.answers in
      tally.attempted <- tally.attempted + Array.length e.items;
      Array.to_list verdicts
      |> List.mapi (fun i v -> (i, v))
      |> List.filter_map (fun (i, v) ->
             match v with
             | Error msg ->
               fail tally msg;
               None
             | Ok r -> (
               match (e.items.(i), r.P.result) with
               | Gen.Request q, Ok payload -> Some (q, payload)
               | _ -> None)))
    exchanges

(* Every FV answer in the stream as (solve, served max rise); a sweep
   contributes one per point, its x values checked against the
   engine's point rule. *)
let fv_answers tally answers =
  List.concat_map
    (fun ((q : P.request), payload) ->
      match (q.P.kind, payload) with
      | P.Solve s, P.Solved r -> [ (q, s, r.P.max_rise_k) ]
      | P.Sweep sw, P.Swept r ->
        let expected = Gen.sweep_solves sw in
        if List.length expected <> List.length r.P.sweep_points then (
          fail tally (q.P.id ^ ": wrong number of sweep points");
          [])
        else
          List.concat
            (List.map2
               (fun (x, s) (p : P.sweep_point) ->
                 if Oracle.close ~rel:1e-12 x p.P.x_um then [ (q, s, p.P.point_rise_k) ]
                 else (
                   fail tally (Printf.sprintf "%s: sweep point at %g, expected %g" q.P.id p.P.x_um x);
                   []))
               expected r.P.sweep_points)
      | _ ->
        fail tally (q.P.id ^ ": answer of the wrong kind");
        [])
    answers

(* Check served rises against independent in-process solves — a seeded
   sample (cold) or every distinct key (hot).  Returns the number of
   keys checked and the reference solve times. *)
let check_values spec tally ~seed fv =
  let chosen =
    match spec.oracle with
    | `Every_key -> fv
    | `Sample k ->
      let a = Array.of_list fv in
      Rng.shuffle (Rng.make (seed lxor 0x5eed)) a;
      Array.to_list (Array.sub a 0 (Stdlib.min k (Array.length a)))
  in
  let refs = Hashtbl.create 64 in
  let times = ref [] in
  List.iter
    (fun ((q : P.request), (s : P.solve), served) ->
      let key = P.solve_key s in
      let expected =
        match Hashtbl.find_opt refs key with
        | Some v -> v
        | None ->
          let v, dt = Probe.fv_rise ~resolution:s.P.resolution (Probe.stack_of s.P.geometry) in
          times := dt :: !times;
          Hashtbl.add refs key v;
          v
      in
      if not (Oracle.close expected served) then
        fail tally
          (Printf.sprintf "%s: max_rise_k %.17g, in-process solve gives %.17g" q.P.id served expected))
    chosen;
  (Hashtbl.length refs, !times)

(* -------------------------------------------------------- provenance *)

let solve_touches exchanges =
  List.concat_map
    (fun e ->
      Array.to_list e.items
      |> List.concat_map (function
           | Gen.Request q -> Gen.solves_of_kind q.P.kind
           | Gen.Malformed _ -> []))
    exchanges

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let warm_shares answers =
  let solved =
    List.filter_map (function _, P.Solved r -> Some r.P.cache.P.warm | _ -> None) answers
  in
  let n = List.length solved in
  let count w = List.length (List.filter (( = ) w) solved) in
  (frac (count P.Warm_exact) n, frac (count P.Warm_neighbour) n, n)

let properties spec exchanges answers =
  let touches = solve_touches exchanges in
  let keys = List.sort_uniq compare (List.map P.solve_key touches) in
  let lines = List.concat_map (fun e -> Array.to_list e.items) exchanges in
  let exact, neighbour, n_solved = warm_shares answers in
  J.Obj
    [
      ("why", J.String (List.find (fun w -> w.Catalog.workload = spec.name) Catalog.workloads).Catalog.why);
      ("loop", J.String (Printf.sprintf "closed, 1 client, 1 pipe, --batch %d" spec.batch));
      ("lines", J.Int (List.length lines));
      ("malformed_share", J.Float (frac (List.length (List.filter (Fun.negate is_request) lines)) (List.length lines)));
      ("fv_solves_requested", J.Int (List.length touches));
      ("distinct_key_share", J.Float (frac (List.length keys) (List.length touches)));
      ( "res2_share",
        J.Float
          (frac (List.length (List.filter (fun s -> s.P.resolution = 2) touches)) (List.length touches)) );
      ("working_set_keys", J.Int (List.length keys));
      ("cache_capacities", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) capacities));
      ("warm_exact_share", J.Float exact);
      ("warm_neighbour_share", J.Float neighbour);
      ("solve_answers", J.Int n_solved);
    ]

(* ------------------------------------------------------------- metrics *)

let ms = Clock.ms

(* time to answer each run of 64 consecutive lines (one default batch),
   over every starting exchange *)
let window_times exchanges =
  let rec from lines t = function
    | _ when lines >= hot_batch -> Some t
    | [] -> None
    | e :: rest -> from (lines + Array.length e.items) (t +. e.rtt) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | _ :: rest as es -> (
      match from 0 0. es with Some t -> go (t :: acc) rest | None -> List.rev acc)
  in
  go [] exchanges

(* Requests per second of every run of [k] consecutive exchanges (for
   serve_cold, two whole resolution blocks): the median over slices
   shrugs off a burst of contention that a whole-run mean would not. *)
let slice_rates k exchanges =
  let rec go acc = function
    | [] -> List.rev acc
    | es ->
      let slice = List.filteri (fun i _ -> i < k) es in
      let rest = List.filteri (fun i _ -> i >= k) es in
      if List.length slice < k then List.rev acc
      else
        let n = List.fold_left (fun acc e -> acc + List.length e.latencies) 0 slice in
        let busy = List.fold_left (fun acc e -> acc +. e.rtt) 0. slice in
        go ((float_of_int n /. busy) :: acc) rest
  in
  go [] exchanges

(* The p95 of every run of consecutive exchanges holding at least 200
   requests, the fewest that leave ten samples beyond a p95.  Their
   median is not moved by a stall of the shared host that hits a few
   slices, as a whole-run p95 is. *)
let slice_p95s exchanges =
  let rec go acc cur = function
    | [] -> List.rev acc
    | e :: rest ->
      let cur = List.rev_append (List.map ms e.latencies) cur in
      if List.length cur < 200 then go acc cur rest
      else
        match Stats.tail ~q:0.95 cur with
        | Ok p95 -> go (p95 :: acc) [] rest
        | Error e -> failwith e
  in
  go [] [] exchanges

let timings name xs = (name, Stats.summary_to_json (Stats.summarize xs))

let end_to_end spec ~setups (s : session) tally =
  let latencies = List.concat_map (fun e -> e.latencies) s.timed in
  let rates = slice_rates spec.slice s.timed in
  if rates = [] then failwith "throughput_rps: not one full slice; run longer";
  let lat_ms = List.map ms latencies in
  let p95s = slice_p95s s.timed in
  if p95s = [] then failwith "latency_p95_ms: not one slice of 200 requests; run longer";
  let windows = window_times s.timed in
  if windows = [] then failwith "repro_s: not one full 64-line window; run longer";
  let metrics =
    [
      ("setup_s", Stats.median setups);
      ("throughput_rps", Stats.median rates);
      ("latency_p50_ms", Stats.median lat_ms);
      ("latency_p95_ms", Stats.median p95s);
      ("success_rate", 1. -. frac tally.failed tally.attempted);
      ("repro_s", Stats.median windows);
      ("peak_rss_mb", s.rss_mb);
    ]
  in
  let detail =
    [
      timings "setup_s" setups;
      timings "latency_ms" lat_ms;
      timings "slice_p95_ms" p95s;
      timings "window_64_s" windows;
      timings "slice_rps" rates;
    ]
  in
  (metrics, detail)

(* The service-side layers (protocol, caches, engine, pool) of one
   traced session *)
let service_layers ~trace:t (s : session) answers =
  let c = Trace_file.counter t in
  let rate level =
    let h = c ("service.cache." ^ level ^ ".hits") and m = c ("service.cache." ^ level ^ ".misses") in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  let exact, neighbour, _ = warm_shares answers in
  let exchanges = s.warm @ s.timed in
  let request_lines =
    List.concat_map
      (fun e -> List.filter_map (fun i -> if is_request i then Some (Gen.line i) else None) (Array.to_list e.items))
      exchanges
  in
  let responses =
    List.concat_map
      (fun e -> List.filter_map (fun l -> Result.to_option (Oracle.decode l)) (Array.to_list e.answers))
      exchanges
  in
  let us_each f xs = Stats.median (List.map (fun x -> 1e6 *. snd (Clock.time (fun () -> f x))) xs) in
  [
    ("protocol.decode_us", us_each P.parse_request request_lines);
    ("protocol.encode_us", us_each P.response_to_string responses);
    ("cache.operator.hit_rate", rate "operator");
    ("cache.precond.hit_rate", rate "precond");
    ("cache.solution.hit_rate", rate "solution");
    ( "cache.evictions",
      List.fold_left (fun acc l -> acc +. c ("service.cache." ^ l ^ ".evictions")) 0.
        [ "operator"; "precond"; "solution" ] );
    ("warm.exact_frac", exact);
    ("warm.neighbour_frac", neighbour);
    ("engine.request_ms_p50", ms (Trace_file.hist t "service.request_seconds" "p50"));
    ("engine.batch_ms", ms (Trace_file.mean_dur t "service.batch"));
    ( "engine.unattributed_frac",
      Trace_file.unattributed t ~parent:"service.request"
        ~children:[ "service.assemble"; "service.precond_setup"; "service.solve" ] );
    ("pool.domains", float_of_int (Trace_file.domains t));
    ("pool.utilization", Trace_file.gauge t "pool.utilization");
    ("pool.idle_s", Trace_file.gauge t "pool.idle_seconds");
  ]

(* every per-layer metric of one traced session; [refs] are the
   oracle's in-process FV solve times *)
let per_layer ~trace (s : session) answers ~refs ~overhead ~stacks =
  let t = trace in
  let _, _, n_solved = warm_shares answers in
  (* the service's fast path (CG with its cached preconditioner) skips
     Robust.solve, whose precond.rung.* counters so see only the answers
     that escalated: count the rung every answer names *)
  let by_rung rung =
    List.length (List.filter (function _, P.Solved r -> r.P.rung = rung | _ -> false) answers)
  in
  let iterations =
    List.fold_left
      (fun acc -> function
        | _, P.Solved r -> acc + r.P.iterations
        | _, P.Swept r -> acc + r.P.sweep_iterations
        | _ -> acc)
      0 answers
  in
  let requests = List.length (Trace_file.named t "service.request") in
  let core = Probe.core (List.map snd stacks) in
  service_layers ~trace s answers
  @ [
      ("fem.assemble_count", float_of_int (List.length (Trace_file.named t "service.assemble")));
      ("precond.setup_ms", ms (Trace_file.mean_dur t "service.precond_setup"));
      ("precond.mg_share", frac (by_rung "cg-mg") n_solved);
      ("mg.setup_s", Trace_file.mean_dur t "mg.setup");
      ("mg.cycle_s", Trace_file.mean_dur t "mg.cycle");
      ("krylov.iterations", float_of_int iterations);
      ("krylov.solve_ms", ms (Trace_file.mean_dur t "service.solve"));
      ( "krylov.ms_per_iteration",
        ms (Trace_file.total t "service.solve") /. float_of_int (Stdlib.max 1 iterations) );
      ( "robust.ladder_share",
        frac (Trace_file.count_with_descendant t ~name:"service.request" ~prefix:"robust.") requests );
      ("core.fv_over_model_b500", ms (Stats.median refs) /. List.assoc "core.model_b_ms.n500" core);
      ("obs.trace_overhead", overhead);
      ("gc.allocated_mb", Trace_file.gauge t "gc.allocated_words" *. 8. /. 1048576.);
      ("gc.major_collections", Trace_file.gauge t "gc.major_collections");
    ]
  @ List.map (fun r -> ("robust.rung." ^ r, float_of_int (by_rung r))) Catalog.rungs
  @ Probe.fem stacks
  @ Probe.precond (List.map snd (List.filteri (fun i _ -> i < 4) stacks))
  @ core

(* ----------------------------------------------------------------- run *)

(* the first [k] distinct FV cases in request order, for the layer
   probes *)
let distinct_cases k fv =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, (s : P.solve), _) ->
      let key = P.solve_key s in
      if Hashtbl.mem seen key || Hashtbl.length seen >= k then None
      else (
        Hashtbl.add seen key ();
        Some (s.P.resolution, Probe.stack_of s.P.geometry)))
    fv

let session_wall (s : session) = List.fold_left (fun acc e -> acc +. e.rtt) 0. (s.warm @ s.timed)

(* Traced run: pairs of sessions over the same fixed prefix, untraced
   and traced, alternating which goes first, until [seconds] are spent.
   The per-layer numbers come from the first pair's trace; the overhead
   is the median traced/untraced wall ratio over all pairs. *)
let traced_pairs spec ~seed ~seconds =
  let path k = Filename.concat out_dir (Printf.sprintf "%s-%d.%d.trace.jsonl" spec.name seed (Stdlib.min k 1)) in
  let one trace = session spec ~seed ~trace ~stop:(fun n _ -> n >= spec.traced) in
  let t0 = Clock.now () in
  (* no pair is started that would end past [seconds], judging by the
     previous one's length *)
  let rec go k acc last =
    let now = Clock.now () in
    if k > 0 && now -. t0 +. last >= seconds then List.rev acc
    else
      let pair =
        if k mod 2 = 0 then
          let plain = one None in
          (plain, one (Some (path k)))
        else
          let traced = one (Some (path k)) in
          (one None, traced)
      in
      go (k + 1) (pair :: acc) (Clock.now () -. now)
  in
  (go 0 [] 0., path 0)

let run spec ~seed ~seconds ~traced =
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  let tally = { attempted = 0; failures = []; failed = 0 } in
  (* set-up is probed before and after the sessions, so its median spans
     the host's speed over the run rather than one moment of it *)
  let setup_probes first =
    let probes = List.init n_setup (fun k -> setup_probe spec ~seed (first + k)) in
    tally.attempted <- tally.attempted + n_setup;
    List.iter (fun (_, v) -> Result.iter_error (fail tally) v) probes;
    List.map fst probes
  in
  let before = setup_probes 0 in
  let sessions, mode =
    if not traced then
      (* a slower server runs past [seconds] rather than leave p95
         without its ten samples beyond *)
      let enough n = n * spec.batch >= min_lines in
      let s = session spec ~seed ~trace:None ~stop:(fun n t -> t >= seconds && enough n) in
      ([ s ], `End_to_end s)
    else
      let pairs, path = traced_pairs spec ~seed ~seconds in
      let overhead =
        Stats.median (List.map (fun (p, w) -> session_wall w /. session_wall p) pairs)
      in
      ( List.concat_map (fun (p, w) -> [ p; w ]) pairs,
        `Per_layer (snd (List.hd pairs), path, overhead, List.length pairs) )
  in
  let setups = before @ setup_probes n_setup in
  List.iter (fun (s : session) -> Result.iter_error (fail tally) s.exit) sessions;
  let checked = List.map (fun s -> (s, check_exchanges tally (s.warm @ s.timed))) sessions in
  let fv = List.concat_map (fun (_, answers) -> fv_answers tally answers) checked in
  let n_keys, refs = check_values spec tally ~seed fv in
  let first, first_answers = List.hd checked in
  let metrics, detail =
    match mode with
    | `End_to_end s -> end_to_end spec ~setups s tally
    | `Per_layer (s, path, overhead, n_pairs) ->
      let trace =
        match Trace_file.load path with Ok t -> t | Error e -> failwith ("trace: " ^ e)
      in
      (* the experiments layer is not on the serve path; it is timed and
         checked once on its own, after the sessions, and named as
         off-path *)
      let off_path, problems = Paper.probe () in
      tally.attempted <- tally.attempted + 1;
      if problems <> [] then fail tally (String.concat "; " problems);
      ( per_layer ~trace s (List.assq s checked) ~refs ~overhead ~stacks:(distinct_cases 8 fv)
        @ off_path,
        [ ("trace_pairs", J.Int n_pairs); Probe.off_path off_path ] )
  in
  {
    Catalog.metrics;
    correct = tally.failed = 0;
    attempted = tally.attempted;
    failed = tally.failed;
    provenance =
      [
        ("workload", properties spec (first.warm @ first.timed) first_answers);
        ("timings", J.Obj detail);
        ("oracle_keys_checked", J.Int n_keys);
        ("failures", J.List (List.rev_map (fun s -> J.String s) tally.failures));
      ];
  }
