module Obs_metrics = Ttsv_obs.Metrics
module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault

(* per-attempt observability: total Krylov iterations spent and the final
   true relative residual of each attempt, per method *)
let m_cg_iters = Obs_metrics.Counter.make "cg.iterations"
let m_cg_res = Obs_metrics.Histogram.make "cg.residual_final"
let m_bicg_iters = Obs_metrics.Counter.make "bicgstab.iterations"
let m_bicg_res = Obs_metrics.Histogram.make "bicgstab.residual_final"

let record_attempt iters_c res_h iterations residual =
  if Ttsv_obs.Flags.metrics_on () then begin
    Obs_metrics.Counter.add iters_c iterations;
    Obs_metrics.Histogram.observe res_h residual
  end

type status =
  | Converged
  | Iteration_limit
  | Breakdown of string
  | Stagnated of int
  | Diverged of float
  | Non_finite of string
  | Budget_exhausted of Budget.verdict

type result = {
  solution : Vec.t;
  iterations : int;
  residual : float;
  converged : bool;
  status : status;
  trace : float array;
  conv : Ttsv_obs.History.snapshot option;
}

(* Residual history recording, active only while observability is on:
   the disabled path allocates no ring buffer and costs one atomic read
   (inside [Flags.enabled]) per solve, not per iteration.  When a trace
   file is open, the snapshot is also emitted as a [conv] line tagged
   with the enclosing span (the [robust.<rung>] span when the Robust
   ladder is driving). *)
let history_create meth =
  if Ttsv_obs.Flags.enabled () then Some (Ttsv_obs.History.create ~meth ()) else None

let history_record hist iter res =
  match hist with Some h -> Ttsv_obs.History.record h iter res | None -> ()

let history_finish hist =
  match hist with
  | None -> None
  | Some h ->
    let s = Ttsv_obs.History.snapshot h in
    if Ttsv_obs.Flags.trace_on () then Ttsv_obs.Sink.conv ?span:(Ttsv_obs.Span.current ()) s;
    Some s

exception Not_converged of result

let pp_status ppf = function
  | Converged -> Format.fprintf ppf "converged"
  | Iteration_limit -> Format.fprintf ppf "iteration limit reached"
  | Breakdown what -> Format.fprintf ppf "breakdown (%s)" what
  | Stagnated k -> Format.fprintf ppf "stagnated (%d iterations without progress)" k
  | Diverged factor -> Format.fprintf ppf "diverged (residual grew %.3gx)" factor
  | Non_finite where -> Format.fprintf ppf "non-finite values in %s" where
  | Budget_exhausted v -> Format.fprintf ppf "budget exhausted (%a)" Budget.pp_verdict v

let norm_b_floor b = Float.max (Vec.norm2 b) 1e-300

(* Budget poll, once per Krylov iteration: overshoot past a deadline is
   bounded by a single iteration (plus the final true-residual matvec). *)
let budget_status = function
  | None -> None
  | Some b -> (
    match Budget.check b with Some v -> Some (Budget_exhausted v) | None -> None)

let budget_tick = function Some b -> Budget.tick b | None -> ()

let default_max_iter n max_iter =
  match max_iter with Some m -> m | None -> Stdlib.max 100 (10 * n)

let default_stagnation_window = 250
let default_divergence_factor = 1e4

(* Krylov methods routinely plateau for long stretches before their
   superlinear phase kicks in (the plateau length tracks the spectrum,
   not the user's patience), so the default window scales with the
   iteration budget: give up only after 10 % of the budget passes with
   no meaningful progress. *)
let resolve_window max_iter = function
  | Some w -> w
  | None -> Stdlib.max default_stagnation_window (max_iter / 10)

(* In-flight health guard shared by every iteration: watches the residual
   history for NaN/Inf, for growth beyond [growth] times the best residual
   seen, and for [window] consecutive iterations without a meaningful
   (0.1 %) improvement over that best.  [best]/[best_iter] are the mutable
   monitor state. *)
let guard ~window ~growth best best_iter iter res =
  if not (Float.is_finite res) then Some (Non_finite "iterates")
  else if res < 0.999 *. !best then begin
    best := res;
    best_iter := iter;
    None
  end
  else if res > growth *. !best then Some (Diverged (res /. !best))
  else if iter - !best_iter >= window then Some (Stagnated (iter - !best_iter))
  else None

let notify on_iterate iter res =
  match on_iterate with Some f -> f iter res | None -> ()

(* Pre-flight scan: a single NaN in the matrix or the right-hand side
   poisons every inner product, so reject it before spending iterations. *)
let check_inputs a b =
  if not (Sparse.all_finite a) then Some "matrix"
  else if not (Vec.all_finite b) then Some "rhs"
  else None

let rejected n x0 where =
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  {
    solution = x;
    iterations = 0;
    residual = Float.nan;
    converged = false;
    status = Non_finite where;
    trace = [||];
    conv = None;
  }

(* Preconditioned conjugate gradients (Jacobi by default, or any
   [Precond.t] the caller supplies — the Robust ladder passes IC(0) and
   SSOR here).

   Every reduction (dots, residual norms) goes through the chunked
   [Vec.pdot]/[Vec.pnorm2], whose value does not depend on the pool, and
   every preconditioner application is pool-independent too: the
   stagnation/divergence guard therefore observes the *same* residual
   sequence whether the kernels are pooled or not, and a pooled run
   takes exactly the iteration count of a sequential one.

   The whole solve runs inside one persistent [Pool.with_region], so the
   thousands of sub-millisecond Krylov kernels are published to
   already-resident workers instead of paying a fork/join each. *)
let cg ?(tol = 1e-10) ?max_iter ?x0 ?on_iterate ?stagnation_window
    ?(divergence_factor = default_divergence_factor) ?pool ?precond ?budget a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Iterative.cg: matrix not square";
  if Array.length b <> n then invalid_arg "Iterative.cg: rhs dimension mismatch";
  match check_inputs a b with
  | Some where -> rejected n x0 where
  | None ->
    let max_iter = default_max_iter n max_iter in
    let stagnation_window = resolve_window max_iter stagnation_window in
    (* the Jacobi fallback is built only when no preconditioner was
       supplied: one Sparse.diagonal pass, not a wasted one per call *)
    let m =
      match precond with
      | Some m -> m
      | None -> Precond.jacobi_of_diagonal (Sparse.diagonal a)
    in
    if Precond.dim m <> n then invalid_arg "Iterative.cg: preconditioner dimension mismatch";
    Ttsv_parallel.Pool.with_region
      (Option.value pool ~default:Ttsv_parallel.Pool.seq)
      (fun () ->
        let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
        let ax0 = Sparse.mul ?pool a x in
        budget_tick budget;
        Fault.poison "matvec" ax0;
        let r = Vec.sub b ax0 in
        let nb = norm_b_floor b in
        let res = ref (Vec.pnorm2 ?pool r /. nb) in
        let trace = ref [ !res ] in
        let hist = history_create "cg" in
        history_record hist 0 !res;
        let iter = ref 0 in
        let best = ref !res and best_iter = ref 0 in
        let status = ref (if !res <= tol then Some Converged else None) in
        (* an already-converged x0 (an exact warm start) pays no
           preconditioner application: p and rz are read only by the loop *)
        let p, rz =
          if !status = None then begin
            let z = Precond.apply ?pool m r in
            (z, ref (Vec.pdot ?pool r z))
          end
          else ([||], ref 0.)
        in
        while !status = None && !iter < max_iter do
          match budget_status budget with
          | Some s -> status := Some s
          | None ->
          incr iter;
          let ap = Sparse.mul ?pool a p in
          budget_tick budget;
          Fault.poison "matvec" ap;
          let pap = Vec.pdot ?pool p ap in
          if Float.abs pap < 1e-300 then status := Some (Breakdown "p.Ap underflow")
          else begin
            let alpha = !rz /. pap in
            (* fused: x += alpha p and r -= alpha Ap in one pass *)
            Vec.paxpy2 ?pool alpha p ap x r;
            res := Vec.pnorm2 ?pool r /. nb;
            trace := !res :: !trace;
            history_record hist !iter !res;
            notify on_iterate !iter !res;
            if !res <= tol then status := Some Converged
            else begin
              (match
                 guard ~window:stagnation_window ~growth:divergence_factor best best_iter
                   !iter !res
               with
              | Some s -> status := Some s
              | None -> ());
              if !status = None then begin
                let z' = Precond.apply ?pool m r in
                let rz' = Vec.pdot ?pool r z' in
                let beta = rz' /. !rz in
                rz := rz';
                (* fused: p <- z' + beta p in one pass *)
                Vec.pxpby ?pool z' beta p
              end
            end
          end
        done;
        let status = match !status with Some s -> s | None -> Iteration_limit in
        (* On any exit that did not just verify [res <= tol] the recurrence
           residual may have drifted from the truth (most visibly on p.Ap
           breakdown, where the loop aborts with a stale update); recompute
           the true residual so [converged] cannot lie. *)
        let residual =
          match status with
          | Converged -> !res
          | _ -> Vec.pnorm2 ?pool (Vec.sub b (Sparse.mul ?pool a x)) /. nb
        in
        let converged = Float.is_finite residual && residual <= tol in
        record_attempt m_cg_iters m_cg_res !iter residual;
        {
          solution = x;
          iterations = !iter;
          residual;
          converged;
          status = (if converged then Converged else status);
          trace = Array.of_list (List.rev !trace);
          conv = history_finish hist;
        })

let cg_exn ?tol ?max_iter ?x0 a b =
  let r = cg ?tol ?max_iter ?x0 a b in
  if r.converged then r.solution else raise (Not_converged r)

(* Preconditioned BiCGStab (van der Vorst), Jacobi by default.  Same
   pooled-kernel discipline and persistent region as [cg]: reductions
   are chunk-deterministic, so the guard sees identical residuals with
   or without a pool. *)
let bicgstab ?(tol = 1e-10) ?max_iter ?x0 ?on_iterate ?stagnation_window
    ?(divergence_factor = default_divergence_factor) ?pool ?precond ?budget a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Iterative.bicgstab: matrix not square";
  if Array.length b <> n then invalid_arg "Iterative.bicgstab: rhs dimension mismatch";
  match check_inputs a b with
  | Some where -> rejected n x0 where
  | None ->
    let max_iter = default_max_iter n max_iter in
    let stagnation_window = resolve_window max_iter stagnation_window in
    let m =
      match precond with
      | Some m -> m
      | None -> Precond.jacobi_of_diagonal (Sparse.diagonal a)
    in
    if Precond.dim m <> n then
      invalid_arg "Iterative.bicgstab: preconditioner dimension mismatch";
    Ttsv_parallel.Pool.with_region
      (Option.value pool ~default:Ttsv_parallel.Pool.seq)
      (fun () ->
    let apply_m v = Precond.apply ?pool m v in
    let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
    let ax0 = Sparse.mul ?pool a x in
    budget_tick budget;
    Fault.poison "matvec" ax0;
    let r = Vec.sub b ax0 in
    let r_hat = Vec.copy r in
    let nb = norm_b_floor b in
    let rho = ref 1. and alpha = ref 1. and omega = ref 1. in
    let v = Vec.zeros n and p = Vec.zeros n in
    let res = ref (Vec.pnorm2 ?pool r /. nb) in
    let trace = ref [ !res ] in
    let hist = history_create "bicgstab" in
    history_record hist 0 !res;
    let iter = ref 0 in
    let best = ref !res and best_iter = ref 0 in
    let status = ref (if !res <= tol then Some Converged else None) in
    while !status = None && !iter < max_iter do
      match budget_status budget with
      | Some s -> status := Some s
      | None ->
      incr iter;
      let rho' = Vec.pdot ?pool r_hat r in
      if Float.abs rho' < 1e-300 then status := Some (Breakdown "rho underflow")
      else begin
        let beta = rho' /. !rho *. (!alpha /. !omega) in
        rho := rho';
        for i = 0 to n - 1 do
          p.(i) <- r.(i) +. (beta *. (p.(i) -. (!omega *. v.(i))))
        done;
        let p_hat = apply_m p in
        let v' = Sparse.mul ?pool a p_hat in
        budget_tick budget;
        Fault.poison "matvec" v';
        Array.blit v' 0 v 0 n;
        let denom = Vec.pdot ?pool r_hat v in
        if Float.abs denom < 1e-300 then status := Some (Breakdown "r_hat.v underflow")
        else begin
          alpha := rho' /. denom;
          let s = Vec.copy r in
          Vec.paxpy ?pool (-. !alpha) v s;
          if Vec.pnorm2 ?pool s /. nb <= tol then begin
            Vec.paxpy ?pool !alpha p_hat x;
            res := Vec.pnorm2 ?pool s /. nb;
            trace := !res :: !trace;
            history_record hist !iter !res;
            notify on_iterate !iter !res;
            status := Some Converged
          end
          else begin
            let s_hat = apply_m s in
            let t = Sparse.mul ?pool a s_hat in
            budget_tick budget;
            Fault.poison "matvec" t;
            let tt = Vec.pdot ?pool t t in
            if Float.abs tt < 1e-300 then status := Some (Breakdown "t.t underflow")
            else begin
              omega := Vec.pdot ?pool t s /. tt;
              Vec.paxpy ?pool !alpha p_hat x;
              Vec.paxpy ?pool !omega s_hat x;
              let r' = Vec.copy s in
              Vec.paxpy ?pool (-. !omega) t r';
              Array.blit r' 0 r 0 n;
              res := Vec.pnorm2 ?pool r /. nb;
              trace := !res :: !trace;
              history_record hist !iter !res;
              notify on_iterate !iter !res;
              if !res <= tol then status := Some Converged
              else
                match
                  guard ~window:stagnation_window ~growth:divergence_factor best best_iter
                    !iter !res
                with
                | Some s -> status := Some s
                | None -> ()
            end
          end
        end
      end
    done;
    let status = match !status with Some s -> s | None -> Iteration_limit in
    (* recompute true residual for the report *)
    let true_res = Vec.pnorm2 ?pool (Vec.sub b (Sparse.mul ?pool a x)) /. nb in
    let converged = Float.is_finite true_res && true_res <= tol in
    record_attempt m_bicg_iters m_bicg_res !iter true_res;
    {
      solution = x;
      iterations = !iter;
      residual = true_res;
      converged;
      status = (if converged then Converged else status);
      trace = Array.of_list (List.rev !trace);
      conv = history_finish hist;
    })

let stationary name ?(tol = 1e-10) ?max_iter ?on_iterate update a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg ("Iterative." ^ name ^ ": matrix not square");
  if Array.length b <> n then invalid_arg ("Iterative." ^ name ^ ": rhs dimension mismatch");
  match check_inputs a b with
  | Some where -> rejected n None where
  | None ->
    let max_iter = default_max_iter n max_iter in
    let window = resolve_window max_iter None in
    let d = Sparse.diagonal a in
    for i = 0 to n - 1 do
      if Float.abs d.(i) < 1e-300 then invalid_arg ("Iterative." ^ name ^ ": zero diagonal")
    done;
    let x = Vec.zeros n in
    let nb = norm_b_floor b in
    let res = ref (Sparse.residual_norm2 a b x /. nb) in
    let trace = ref [ !res ] in
    let iter = ref 0 in
    let best = ref !res and best_iter = ref 0 in
    let status = ref (if !res <= tol then Some Converged else None) in
    while !status = None && !iter < max_iter do
      incr iter;
      update a b d x;
      res := Sparse.residual_norm2 a b x /. nb;
      trace := !res :: !trace;
      notify on_iterate !iter !res;
      if !res <= tol then status := Some Converged
      else
        match
          guard ~window ~growth:default_divergence_factor best best_iter !iter !res
        with
        | Some s -> status := Some s
        | None -> ()
    done;
    let status = match !status with Some s -> s | None -> Iteration_limit in
    {
      solution = x;
      iterations = !iter;
      residual = !res;
      converged = !res <= tol;
      status;
      trace = Array.of_list (List.rev !trace);
      (* stationary methods are debugging tools, not ladder rungs; no
         replayable curve needed beyond [trace] *)
      conv = None;
    }

let jacobi ?tol ?max_iter a b =
  let update a b d x =
    let ax = Sparse.mat_vec a x in
    for i = 0 to Array.length x - 1 do
      x.(i) <- x.(i) +. ((b.(i) -. ax.(i)) /. d.(i))
    done
  in
  stationary "jacobi" ?tol ?max_iter update a b

(* A Gauss-Seidel / SOR sweep recomputes the residual of row i against the
   *current* x, which mixes old and new values as required.  Only the
   stored entries of row i are visited, so one sweep is O(nnz), not
   O(n^2). *)
let sweep omega a b d x =
  let n = Array.length x in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    Sparse.iter_row a i (fun j v -> acc := !acc -. (v *. x.(j)));
    x.(i) <- x.(i) +. (omega *. !acc /. d.(i))
  done

let gauss_seidel ?tol ?max_iter a b = stationary "gauss_seidel" ?tol ?max_iter (sweep 1.) a b

let sor ?tol ?max_iter ~omega a b =
  if omega <= 0. || omega >= 2. then invalid_arg "Iterative.sor: omega must be in (0, 2)";
  stationary "sor" ?tol ?max_iter (sweep omega) a b
