(* The benchmark's names: workloads and metrics.  BENCHMARK.json at the
   repository root lists the same names; the self-tests hold the two
   together. *)

type workload = { workload : string; why : string }

let workloads =
  [
    {
      workload = "serve_cold";
      why =
        "distinct geometries at batch 1: FV assembly, multigrid setup and the Krylov solve \
        do the work while the service caches only fill and evict";
    };
    {
      workload = "serve_hot";
      why =
        "Zipf-popular keys in 64-line batches with repeated sweeps and malformed lines: \
        protocol, cache hits, exact warm starts and pool dispatch do the work";
    };
  ]

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* measured with tracing off, on every workload *)
let end_to_end =
  [
    m "setup_s" "s";
    m "throughput_rps" "1/s";
    m "latency_p50_ms" "ms";
    m "latency_p95_ms" "ms";
    m "success_rate" "ratio";
    m "repro_s" "s";
    m "peak_rss_mb" "MiB";
  ]

(* from the traced run, on every workload *)
let per_layer =
  [
    m "protocol.decode_us" "us";
    m "protocol.encode_us" "us";
    m "cache.operator.hit_rate" "ratio";
    m "cache.precond.hit_rate" "ratio";
    m "cache.solution.hit_rate" "ratio";
    m "cache.evictions" "count";
    m "warm.exact_frac" "ratio";
    m "warm.neighbour_frac" "ratio";
    m "engine.request_ms_p50" "ms";
    m "engine.batch_ms" "ms";
    m "engine.unattributed_frac" "ratio";
    m "fem.assemble_ms" "ms";
    m "fem.assemble_count" "count";
    m "fem.cells" "count";
    m "precond.setup_ms" "ms";
    m "precond.mg_share" "ratio";
    m "mg.setup_s" "s";
    m "mg.cycle_s" "s";
    m "precond.mg_setup_ms.res1" "ms";
    m "precond.mg_setup_ms.res2" "ms";
    m "precond.ic0_setup_ms.res1" "ms";
    m "precond.ic0_setup_ms.res2" "ms";
    m "krylov.iterations" "count";
    m "krylov.solve_ms" "ms";
    m "krylov.ms_per_iteration" "ms";
    m "robust.ladder_share" "ratio";
    m "robust.rung.cg-mg" "count";
    m "robust.rung.cg-ic0" "count";
    m "robust.rung.cg-ssor" "count";
    m "robust.rung.cg" "count";
    m "robust.rung.bicgstab" "count";
    m "robust.rung.direct" "count";
    m "pool.domains" "count";
    m "pool.utilization" "ratio";
    m "pool.idle_s" "s";
    m "core.model_1d_ms" "ms";
    m "core.model_a_ms" "ms";
    m "core.model_b_ms.n1" "ms";
    m "core.model_b_ms.n20" "ms";
    m "core.model_b_ms.n100" "ms";
    m "core.model_b_ms.n500" "ms";
    m "core.fv_over_model_b500" "ratio";
    m "repro.table1_s" "s";
    m "repro.fig5_s" "s";
    m "repro.calibrate_s" "s";
    m "obs.trace_overhead" "ratio";
    m "gc.allocated_mb" "MiB";
    m "gc.major_collections" "count";
  ]

let rungs = [ "cg-mg"; "cg-ic0"; "cg-ssor"; "cg"; "bicgstab"; "direct" ]

(* BENCHMARK.json's name rule: a letter or digit first, then at most 63
   more of letters, digits, '_', '.' and '-' *)
let valid_name s =
  let ok_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* What one run measured, checked and recorded. *)
type outcome = {
  metrics : (string * float) list;
  correct : bool;
  attempted : int;
  failed : int;
  provenance : (string * Ttsv_obs.Json.t) list;
}

(* The last line of standard output: exactly these four keys, one
   metric per catalogue entry in [expected].  A missing or unknown
   metric is a bug in the benchmark, not a measurement. *)
let result_line ~expected o =
  let module J = Ttsv_obs.Json in
  let names = List.map fst o.metrics in
  List.iter
    (fun e ->
      if not (List.mem e.name names) then invalid_arg ("metric not measured: " ^ e.name))
    expected;
  List.iter
    (fun n ->
      if not (List.exists (fun e -> e.name = n) expected) then invalid_arg ("unknown metric: " ^ n))
    names;
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool o.correct);
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun e ->
                  let v = List.assoc e.name o.metrics in
                  if not (Float.is_finite v) then invalid_arg ("non-finite metric: " ^ e.name);
                  (e.name, J.Obj [ ("value", J.Float v); ("unit", J.String e.unit) ]))
                expected) );
       ])
