(* Preconditioner correctness: IC(0)/SSOR-preconditioned CG agrees with
   the dense direct solve on the paper's Table I grids, preconditioning
   never costs iterations on random SPD systems, IC(0) breakdown
   retries with growing diagonal shifts instead of giving up, and the
   band Cholesky factor is an exact solve that is admitted only on
   narrow bands. *)

module Vec = Ttsv_numerics.Vec
module Sparse = Ttsv_numerics.Sparse
module Dense = Ttsv_numerics.Dense
module Precond = Ttsv_numerics.Precond
module Iterative = Ttsv_numerics.Iterative
module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Budget = Ttsv_parallel.Budget
module Pool = Ttsv_parallel.Pool
module Diagnostics = Ttsv_robust.Diagnostics
open Helpers

let get_ok what = function
  | Ok m -> m
  | Error why -> Alcotest.fail (Printf.sprintf "%s: construction failed: %s" what why)

(* dense tridiagonal SPD fixture: IC(0) on a tridiagonal matrix is the
   exact Cholesky factorization, so [apply] must invert it exactly *)
let tridiag_spd n =
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i (4. +. (0.1 *. float_of_int i));
    if i + 1 < n then begin
      Sparse.add b i (i + 1) (-1.);
      Sparse.add b (i + 1) i (-1.)
    end
  done;
  Sparse.finalize b

let sparse_of_dense rows =
  let n = Array.length rows in
  let b = Sparse.builder n n in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> if v <> 0. then Sparse.add b i j v) row)
    rows;
  Sparse.finalize b

(* --- Table I grid agreement with the dense direct solve ------------------ *)

(* the Table I sweep varies the TSV radius; resolution 1 keeps the grid
   (n = 1020) small enough to factor densely as the reference *)
let table1_grids () =
  List.map
    (fun r_um ->
      let stack = Params.block ~r:(Units.um r_um) () in
      let p = Problem.of_stack stack in
      let a = Solver.assemble p in
      (Printf.sprintf "r=%gum" r_um, a, p.Problem.source))
    [ 2.; 5.; 10. ]

let check_matches_direct name make_precond =
  List.iter
    (fun (grid, a, b) ->
      let exact = Dense.solve (Sparse.to_dense a) b in
      let m = make_precond a in
      let r = Iterative.cg ~tol:1e-13 ~precond:m a b in
      Alcotest.(check bool)
        (Printf.sprintf "%s converged on %s" name grid)
        true r.Iterative.converged;
      let scale = Float.max 1e-300 (Vec.norm_inf exact) in
      let diff = Vec.norm_inf (Vec.sub r.Iterative.solution exact) /. scale in
      Alcotest.(check bool)
        (Printf.sprintf "%s matches dense direct on %s (rel diff %.3g)" name grid diff)
        true
        (diff <= 1e-8))
    (table1_grids ())

let test_ic0_matches_direct () =
  check_matches_direct "IC(0)-CG" (fun a -> get_ok "ic0" (Precond.ic0 a))

let test_ssor_matches_direct () =
  check_matches_direct "SSOR-CG" (fun a -> get_ok "ssor" (Precond.ssor a))

(* --- preconditioning never costs iterations (qcheck) --------------------- *)

(* random SPD tridiagonal-perturbed system (resistive chain + anchors):
   CG with any of the three preconditioners must converge in no more
   iterations than unpreconditioned CG (identity preconditioner) *)
let gen_spd_system =
  let open QCheck2.Gen in
  let* n = int_range 10 60 in
  let* a = gen_spd n in
  let* b = gen_vec n in
  return (n, a, b)

let prop_preconditioned_no_worse (n, a, b) =
  let tol = 1e-10 and max_iter = 20 * n in
  let solve precond =
    let r = Iterative.cg ~tol ~max_iter ~precond a b in
    if not r.Iterative.converged then
      QCheck2.Test.fail_reportf "CG (%s) failed to converge" (Precond.name precond);
    r.Iterative.iterations
  in
  let identity = Precond.jacobi_of_diagonal (Array.make n 1.) in
  let plain = solve identity in
  let ic0 = solve (get_ok "ic0" (Precond.ic0 a)) in
  let ssor = solve (get_ok "ssor" (Precond.ssor a)) in
  if ic0 > plain then
    QCheck2.Test.fail_reportf "IC(0)-CG took %d iterations, plain CG %d" ic0 plain;
  if ssor > plain then
    QCheck2.Test.fail_reportf "SSOR-CG took %d iterations, plain CG %d" ssor plain;
  true

(* --- IC(0) breakdown and shift retry ------------------------------------- *)

let test_ic0_spd_no_shift () =
  let a = tridiag_spd 12 in
  let m = get_ok "ic0" (Precond.ic0 a) in
  Alcotest.(check (option (float 0.)))
    "SPD factorization needs no shift" (Some 0.) (Precond.ic0_shift m)

let test_ic0_breakdown_retries_shift () =
  (* symmetric indefinite with positive diagonal: the unshifted pivot is
     5 - 36/4 < 0, and only the last relative shift (1.0) rescues it *)
  let a = sparse_of_dense [| [| 4.; 6. |]; [| 6.; 5. |] |] in
  let m = get_ok "ic0" (Precond.ic0 a) in
  Alcotest.(check (option (float 0.)))
    "breakdown retried up to shift 1.0" (Some 1.) (Precond.ic0_shift m)

let test_ic0_all_shifts_fail () =
  (* pivot is a_11 (1 + s) - 9 / (1 + s): negative for every default
     shift (still -2.5 at s = 1), so construction must report the error *)
  let a = sparse_of_dense [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  match Precond.ic0 a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected breakdown at every shift"

let test_ic0_missing_diagonal () =
  let a = sparse_of_dense [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  match Precond.ic0 a with
  | Error why ->
    Alcotest.(check bool)
      (Printf.sprintf "error mentions the diagonal: %s" why)
      true
      (String.length why > 0)
  | Ok _ -> Alcotest.fail "expected missing-diagonal error"

(* --- apply semantics ------------------------------------------------------ *)

let test_ic0_exact_on_tridiagonal () =
  (* zero fill loses nothing on a tridiagonal pattern: IC(0) is the full
     Cholesky factorization and apply is an exact solve *)
  let n = 8 in
  let a = tridiag_spd n in
  let b = Array.init n (fun i -> float_of_int (i + 1)) in
  let exact = Dense.solve (Sparse.to_dense a) b in
  let m = get_ok "ic0" (Precond.ic0 a) in
  let x = Precond.apply m b in
  Array.iteri (fun i e -> close ~tol:1e-12 (Printf.sprintf "x[%d]" i) e x.(i)) exact

let test_jacobi_apply_scales_by_diagonal () =
  let a = tridiag_spd 5 in
  let d = Sparse.diagonal a in
  let b = Array.init 5 (fun i -> 1. +. float_of_int i) in
  let x = Precond.apply (Precond.jacobi a) b in
  Array.iteri (fun i bi -> close ~tol:1e-15 (Printf.sprintf "x[%d]" i) (bi /. d.(i)) x.(i)) b

let test_ssor_rejects_bad_omega () =
  let a = tridiag_spd 4 in
  check_raises_invalid "omega = 0" (fun () -> Precond.ssor ~omega:0. a);
  check_raises_invalid "omega = 2" (fun () -> Precond.ssor ~omega:2. a)

let test_ssor_zero_diagonal () =
  let a = sparse_of_dense [| [| 0.; 1. |]; [| 1.; 3. |] |] in
  match Precond.ssor a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected zero-diagonal error"

let test_apply_dimension_mismatch () =
  let m = get_ok "ic0" (Precond.ic0 (tridiag_spd 6)) in
  check_raises_invalid "wrong dimension" (fun () -> Precond.apply m (Array.make 5 1.))

let test_cg_precond_dimension_mismatch () =
  let a = tridiag_spd 6 in
  let m = get_ok "ic0" (Precond.ic0 (tridiag_spd 5)) in
  check_raises_invalid "cg rejects mismatched preconditioner" (fun () ->
      Iterative.cg ~precond:m a (Array.make 6 1.))

(* --- band Cholesky ---------------------------------------------------------- *)

(* a random symmetric strictly diagonally dominant (so SPD) matrix of
   order n and half-bandwidth exactly bw, with a random rhs *)
let gen_band ~n ~bw =
  let open QCheck2.Gen in
  let* offs = array_size (return (n * bw)) (float_range 0.05 1.) in
  let* signs = array_size (return (n * bw)) bool in
  let* b = gen_vec n in
  let builder = Sparse.builder n n in
  let row_abs = Array.make n 0. in
  for i = 0 to n - 1 do
    for d = 1 to Stdlib.min bw i do
      let k = (i * bw) + d - 1 in
      let v = if signs.(k) then offs.(k) else -.offs.(k) in
      Sparse.add builder i (i - d) v;
      Sparse.add builder (i - d) i v;
      row_abs.(i) <- row_abs.(i) +. Float.abs v;
      row_abs.(i - d) <- row_abs.(i - d) +. Float.abs v
    done
  done;
  Array.iteri (fun i s -> Sparse.add builder i i (s +. 0.5)) row_abs;
  return (bw, Sparse.finalize builder, b)

(* any band the factor admits: bw*bw <= n and 2bw+1 < n *)
let gen_banded_system =
  let open QCheck2.Gen in
  let* n = int_range 5 80 in
  let admitted bw = bw * bw <= n && (2 * bw) + 1 < n in
  let rec max_bw bw = if admitted (bw + 1) then max_bw (bw + 1) else bw in
  let* bw = int_range 1 (max_bw 1) in
  gen_band ~n ~bw

(* bands long enough to split (n >= 5 bw), up to 2.5 parts' worth of
   separator-sized slack, so the separator sits at every offset *)
let gen_split_banded_system =
  let open QCheck2.Gen in
  let* bw = int_range 0 12 in
  let* extra = int_range 0 (Stdlib.max 3 (5 * bw / 2)) in
  gen_band ~n:(Stdlib.max (5 * bw) ((bw * bw) + 3) + extra) ~bw

let prop_band_cholesky_exact (bw, a, b) =
  if Sparse.bandwidth a <> bw then
    QCheck2.Test.fail_reportf "bandwidth %d, expected %d" (Sparse.bandwidth a) bw;
  let m = get_ok "chol" (Precond.band_cholesky a) in
  let exact = Dense.solve (Sparse.to_dense a) b in
  let x = Precond.apply m b in
  let diff = Vec.norm_inf (Vec.sub x exact) /. Float.max 1e-300 (Vec.norm_inf exact) in
  if diff > 1e-12 then QCheck2.Test.fail_reportf "relative difference %.3g" diff;
  Precond.name m = "chol"

let expect_refused what a =
  match Precond.band_cholesky a with
  | Error why ->
    Alcotest.(check bool)
      (Printf.sprintf "%s refused as too wide: %s" what why)
      true
      (String.length why >= 13 && String.sub why 0 13 = "band too wide")
  | Ok _ -> Alcotest.failf "%s: expected the band to be refused" what

let test_band_cholesky_refuses_3d () =
  (* a small 3-D stack operator: numbered x-fastest, its half-bandwidth
     is a whole layer (nx*ny), whose square exceeds the order *)
  let stack = Params.block ~r:(Units.um 5.) () in
  let p3 = Ttsv_fem.Problem3.of_stack ~resolution:1 stack in
  let a = Ttsv_fem.Solver3.assemble p3 in
  let n = Sparse.rows a and bw = Sparse.bandwidth a in
  Alcotest.(check bool)
    (Printf.sprintf "bw^2 = %d exceeds n = %d" (bw * bw) n)
    true (bw * bw > n);
  expect_refused "Solver3 operator" a;
  (* the 3-D resolution-1 stack's band shape (nx*ny = 2304 per layer) *)
  let layer = 2304 and nz = 65 in
  let n = layer * nz in
  let builder = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add builder i i 6.;
    if i >= layer then begin
      Sparse.add builder i (i - layer) (-1.);
      Sparse.add builder (i - layer) i (-1.)
    end
  done;
  expect_refused "3-D res1-shaped band" (Sparse.finalize builder)

let test_band_cholesky_indefinite () =
  (* pivot 2: 1 - 3^2 / 1 < 0 *)
  let a =
    sparse_of_dense
      [| [| 1.; 3.; 0.; 0. |]; [| 3.; 1.; 3.; 0. |]; [| 0.; 3.; 1.; 3. |]; [| 0.; 0.; 3.; 1. |] |]
  in
  match Precond.band_cholesky a with
  | Error why ->
    Alcotest.(check string) "reason" "non-positive pivot at row 1" why
  | Ok _ -> Alcotest.fail "expected a non-positive pivot"

let test_band_cholesky_budget_mid_factor () =
  (* a deterministic work cap: the factor ticks one unit per block of
     rows (about a matvec of work), so a cap of 3 lets exactly three
     blocks through and stops the factorization at the fourth poll *)
  let p = Problem.of_stack (Params.block ~r:(Units.um 5.) ()) in
  let a = Solver.assemble p in
  let budget = Budget.make ~max_work:3 () in
  (match Precond.band_cholesky ~budget a with
  | Error why ->
    Alcotest.(check string) "reason" "budget expired (work budget exhausted)" why
  | Ok _ -> Alcotest.fail "expected the work cap to stop the factorization");
  Alcotest.(check int) "three blocks factored before the poll that stopped it" 3
    (Budget.work_spent budget);
  (* the full factorization takes more than three blocks: it really was
     stopped mid-way *)
  let unlimited = Budget.make ~max_work:max_int () in
  ignore (get_ok "chol" (Precond.band_cholesky ~budget:unlimited a));
  Alcotest.(check bool)
    (Printf.sprintf "an unlimited run ticks %d > 3 units" (Budget.work_spent unlimited))
    true
    (Budget.work_spent unlimited > 3)

(* a diagonally dominant tridiagonal band of order 20 with row [bad]'s
   diagonal made negative: 20 >= 5 bw splits it into the lower part
   [0, 9), the separator row 9 and the upper part [10, 20) *)
let tridiag_with_bad_row ?(also = []) bad =
  let n = 20 in
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i (if i = bad || List.mem i also then -1. else 3.);
    if i > 0 then begin
      Sparse.add b i (i - 1) (-1.);
      Sparse.add b (i - 1) i (-1.)
    end
  done;
  Sparse.finalize b

let test_band_cholesky_pivot_global_row () =
  (* whichever part (or the separator) meets the non-positive pivot, the
     error names that row of the matrix, pooled or not *)
  Pool.with_pool ~domains:2 @@ fun pool ->
  List.iter
    (fun (what, a, row) ->
      List.iter
        (fun (how, pool) ->
          match Precond.band_cholesky ?pool a with
          | Error why ->
            Alcotest.(check string)
              (Printf.sprintf "%s (%s)" what how)
              (Printf.sprintf "non-positive pivot at row %d" row)
              why
          | Ok _ -> Alcotest.failf "%s (%s): expected a non-positive pivot" what how)
        [ ("sequential", None); ("pooled", Some pool) ])
    [
      ("lower part", tridiag_with_bad_row 3, 3);
      ("upper part", tridiag_with_bad_row 16, 16);
      ("separator", tridiag_with_bad_row 9, 9);
      ("both parts: the lower one is reported", tridiag_with_bad_row ~also:[ 15 ] 4, 4);
    ]

let test_band_cholesky_budget_pooled () =
  (* a work cap stops the factor iff the parts need at least that much
     work: the same verdict on one domain or two, wherever the cap
     falls *)
  let p = Problem.of_stack (Params.block ~r:(Units.um 5.) ()) in
  let a = Solver.assemble p in
  let unlimited = Budget.make ~max_work:max_int () in
  ignore (get_ok "chol" (Precond.band_cholesky ~budget:unlimited a));
  let total = Budget.work_spent unlimited in
  let verdict ?pool cap =
    match Precond.band_cholesky ?pool ~budget:(Budget.make ~max_work:cap ()) a with
    | Ok _ -> "ok"
    | Error why -> why
  in
  Pool.with_pool ~domains:2 @@ fun pool ->
  List.iter
    (fun cap ->
      let expected = if cap <= total then "budget expired (work budget exhausted)" else "ok" in
      Alcotest.(check string) (Printf.sprintf "cap %d sequential" cap) expected (verdict cap);
      Alcotest.(check string)
        (Printf.sprintf "cap %d pooled" cap)
        expected (verdict ~pool cap))
    [ 0; 1; 3; total / 2; total - 1; total; total + 1 ]

let test_band_cholesky_fv_default () =
  (* the default ladder on the 2-D unit cell: the band-Cholesky rung
     converges in at most two iterations and agrees with IC(0)-CG *)
  let stack = Params.block ~r:(Units.um 5.) () in
  List.iter
    (fun resolution ->
      let p = Problem.of_stack ~resolution stack in
      let chol = Solver.solve p in
      let ic0 = Solver.solve ~rungs:[ Diagnostics.Cg_ic0 ] p in
      Alcotest.(check bool)
        (Printf.sprintf "resolution %d answered by cg-chol" resolution)
        true
        (chol.Solver.diagnostics.Diagnostics.solved_by = Some Diagnostics.Cg_chol);
      Alcotest.(check bool)
        (Printf.sprintf "resolution %d: %d iterations <= 2" resolution chol.Solver.iterations)
        true (chol.Solver.iterations <= 2);
      let diff =
        Vec.norm_inf (Vec.sub chol.Solver.temps ic0.Solver.temps)
        /. Vec.norm_inf ic0.Solver.temps
      in
      Alcotest.(check bool)
        (Printf.sprintf "resolution %d matches IC(0)-CG (rel diff %.3g)" resolution diff)
        true (diff <= 1e-8))
    [ 1; 2; 3; 4 ]

let suite =
  ( "precond",
    [
      test "IC(0)-CG matches dense direct on Table I grids" test_ic0_matches_direct;
      test "SSOR-CG matches dense direct on Table I grids" test_ssor_matches_direct;
      qtest ~count:50 "preconditioned CG needs no more iterations than plain CG"
        gen_spd_system prop_preconditioned_no_worse;
      test "IC(0) on SPD input uses no diagonal shift" test_ic0_spd_no_shift;
      test "IC(0) breakdown retries with growing shifts" test_ic0_breakdown_retries_shift;
      test "IC(0) reports breakdown when every shift fails" test_ic0_all_shifts_fail;
      test "IC(0) rejects a row without a stored diagonal" test_ic0_missing_diagonal;
      test "IC(0) is exact Cholesky on a tridiagonal matrix" test_ic0_exact_on_tridiagonal;
      test "Jacobi apply divides by the diagonal" test_jacobi_apply_scales_by_diagonal;
      test "SSOR rejects omega outside (0, 2)" test_ssor_rejects_bad_omega;
      test "SSOR reports a zero diagonal" test_ssor_zero_diagonal;
      test "apply rejects dimension mismatch" test_apply_dimension_mismatch;
      test "cg rejects mismatched preconditioner" test_cg_precond_dimension_mismatch;
      qtest ~count:100 "band Cholesky apply matches the dense solve on random SPD bands"
        gen_banded_system prop_band_cholesky_exact;
      qtest ~count:100 "split band Cholesky apply matches the dense solve on long SPD bands"
        gen_split_banded_system prop_band_cholesky_exact;
      test "band Cholesky refuses 3-D stack bands" test_band_cholesky_refuses_3d;
      test "band Cholesky reports a non-positive pivot" test_band_cholesky_indefinite;
      test "band Cholesky stops mid-factor when the budget expires"
        test_band_cholesky_budget_mid_factor;
      test "band Cholesky reports a pivot failure at its row of the matrix"
        test_band_cholesky_pivot_global_row;
      test "band Cholesky gives a work cap the same verdict pooled and sequential"
        test_band_cholesky_budget_pooled;
      test "default FV solves take <= 2 band-Cholesky CG iterations"
        test_band_cholesky_fv_default;
    ] )
