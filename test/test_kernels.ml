(* The allocation-free kernels of the served path: each loop must return
   exactly the bits of the higher-order definition it replaced (kept
   below as the oracle), NaN, infinities and signed zeros included, and
   the per-request kernels must not allocate on the minor heap. *)

module Vec = Ttsv_numerics.Vec
module Sparse = Ttsv_numerics.Sparse
module Banded = Ttsv_numerics.Banded
module Precond = Ttsv_numerics.Precond
module Problem = Ttsv_fem.Problem
module Grid = Ttsv_fem.Grid
module P = Ttsv_service.Protocol
module Engine = Ttsv_service.Engine
open Helpers

(* the definitions before the kernels became loops *)
module Old = struct
  let row_dot (row_ptr, col_idx, values) (x : float array) i =
    let acc = ref 0. in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      acc := !acc +. (values.(k) *. x.(col_idx.(k)))
    done;
    !acc

  let mat_vec m x = Array.init (Sparse.rows m) (fun i -> row_dot (Sparse.csr m) x i)

  let diagonal m =
    let row_ptr, col_idx, values = Sparse.csr m in
    Array.init (Sparse.rows m) (fun i ->
        let acc = ref 0. in
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          if col_idx.(k) = i then acc := !acc +. values.(k)
        done;
        !acc)

  let all_finite = Array.for_all Float.is_finite
  let add x y = Array.mapi (fun i xi -> xi +. y.(i)) x
  let sub x y = Array.mapi (fun i xi -> xi -. y.(i)) x
  let scale a x = Array.map (fun xi -> a *. xi) x
  let map2 f x y = Array.mapi (fun i xi -> f xi y.(i)) x

  let sum x =
    let acc = ref 0. in
    Array.iter (fun xi -> acc := !acc +. xi) x;
    !acc

  let max_elt x = Array.fold_left Float.max x.(0) x
  let min_elt x = Array.fold_left Float.min x.(0) x
  let max_rise x = Array.fold_left Float.max 0. x
  let residual_norm2 m b x = Vec.norm2 (sub b (mat_vec m x))

  let banded_mat_vec m x =
    let n = Banded.order m and bw = Banded.bandwidth m in
    Array.init n (fun i ->
        let acc = ref 0. in
        for j = Int.max 0 (i - bw) to Int.min (n - 1) (i + bw) do
          acc := !acc +. (Banded.get m i j *. x.(j))
        done;
        !acc)

  let jacobi_apply d r =
    let inv = Array.map (fun di -> if Float.abs di > 1e-300 then 1. /. di else 1.) d in
    Array.mapi (fun i ri -> inv.(i) *. ri) r
end

let bits x = Int64.bits_of_float x
let same x y = Int64.equal (bits x) (bits y)
let same_array a b = Array.length a = Array.length b && Array.for_all2 same a b

(* mostly ordinary values, with NaN, both infinities, both zeros and a
   subnormal mixed in *)
let gen_float =
  QCheck2.Gen.(
    frequency
      [
        (8, float_range (-1e3) 1e3);
        ( 1,
          oneofl
            [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 5e-324; -1e308 ] );
      ])

let gen_vec_n n = QCheck2.Gen.(array_size (return n) gen_float)
let gen_vec = QCheck2.Gen.(int_range 0 40 >>= gen_vec_n)
let gen_nonempty = QCheck2.Gen.(int_range 1 40 >>= gen_vec_n)
let gen_pair = QCheck2.Gen.(int_range 0 40 >>= fun n -> pair (gen_vec_n n) (gen_vec_n n))

(* a random rectangular CSR matrix (duplicates summed by the builder)
   with a vector for each side *)
let gen_system =
  let open QCheck2.Gen in
  let* rows = int_range 0 24 in
  let* cols = int_range 1 24 in
  let* entries =
    list_size (int_range 0 (3 * (rows + 1)))
      (triple (int_range 0 (Int.max 0 (rows - 1))) (int_range 0 (cols - 1)) gen_float)
  in
  let* x = gen_vec_n cols in
  let* b = gen_vec_n rows in
  let bld = Sparse.builder rows cols in
  if rows > 0 then List.iter (fun (i, j, v) -> Sparse.add bld i j v) entries;
  return (Sparse.finalize bld, x, b)

let gen_banded =
  let open QCheck2.Gen in
  let* n = int_range 1 20 in
  let* bw = int_range 0 4 in
  let* vals = gen_vec_n (n * ((2 * bw) + 1)) in
  let* x = gen_vec_n n in
  let m = Banded.create ~n ~bw in
  for i = 0 to n - 1 do
    for j = Int.max 0 (i - bw) to Int.min (n - 1) (i + bw) do
      Banded.set m i j vals.((i * ((2 * bw) + 1)) + (j - i + bw))
    done
  done;
  return (m, x)

let oracle_tests =
  [
    qtest "Sparse.mat_vec matches its Array.init definition" gen_system (fun (m, x, _) ->
        same_array (Old.mat_vec m x) (Sparse.mat_vec m x));
    qtest "Sparse.diagonal matches its Array.init definition" gen_system (fun (m, _, _) ->
        same_array (Old.diagonal m) (Sparse.diagonal m));
    qtest "Sparse.all_finite matches Array.for_all" gen_system (fun (m, _, _) ->
        let _, _, values = Sparse.csr m in
        Old.all_finite values = Sparse.all_finite m);
    qtest "Sparse.residual_norm2 is norm2 (b - A x) bit for bit" gen_system
      (fun (m, x, b) -> same (Old.residual_norm2 m b x) (Sparse.residual_norm2 m b x));
    qtest "Vec.all_finite matches Array.for_all" gen_vec (fun x ->
        Old.all_finite x = Vec.all_finite x);
    qtest "Vec.add matches Array.mapi" gen_pair (fun (x, y) ->
        same_array (Old.add x y) (Vec.add x y));
    qtest "Vec.sub matches Array.mapi" gen_pair (fun (x, y) ->
        same_array (Old.sub x y) (Vec.sub x y));
    qtest "Vec.scale matches Array.map" QCheck2.Gen.(pair gen_float gen_vec) (fun (a, x) ->
        same_array (Old.scale a x) (Vec.scale a x));
    qtest "Vec.map2 matches Array.mapi" gen_pair (fun (x, y) ->
        same_array (Old.map2 Float.pow x y) (Vec.map2 Float.pow x y));
    qtest "Vec.sum matches Array.iter" gen_vec (fun x -> same (Old.sum x) (Vec.sum x));
    qtest "Vec.max_elt matches Array.fold_left" gen_nonempty (fun x ->
        same (Old.max_elt x) (Vec.max_elt x));
    qtest "Vec.min_elt matches Array.fold_left" gen_nonempty (fun x ->
        same (Old.min_elt x) (Vec.min_elt x));
    qtest "a max rise through max_elt matches the fold from 0" gen_nonempty (fun x ->
        same (Old.max_rise x) (Float.max 0. (Vec.max_elt x)));
    qtest "Banded.mat_vec matches its Array.init definition" gen_banded (fun (m, x) ->
        same_array (Old.banded_mat_vec m x) (Banded.mat_vec m x));
    qtest "Jacobi apply matches its Array.map definition" gen_pair (fun (d, r) ->
        same_array (Old.jacobi_apply d r) (Precond.apply (Precond.jacobi_of_diagonal d) r));
    test "signed zeros and NaN are ordered as before" (fun () ->
        List.iter
          (fun x ->
            Alcotest.(check bool) "max_elt" true (same (Old.max_elt x) (Vec.max_elt x));
            Alcotest.(check bool) "min_elt" true (same (Old.min_elt x) (Vec.min_elt x)))
          [
            [| -0.; 0. |];
            [| 0.; -0. |];
            [| Float.nan; 1. |];
            [| 1.; Float.nan |];
            [| Float.neg_infinity; Float.infinity |];
          ];
        Alcotest.(check bool) "rhs with inf" false (Vec.all_finite [| 1.; Float.infinity |]);
        Alcotest.(check bool) "empty is finite" true (Vec.all_finite [||]));
    test "Problem.total_source is the left fold of the source" (fun () ->
        let p =
          Problem.of_stack ~resolution:1 (Ttsv_core.Params.fig5_stack (Ttsv_physics.Units.um 1.))
        in
        Alcotest.(check bool) "same bits" true
          (same (Array.fold_left ( +. ) 0. p.Problem.source) (Problem.total_source p)));
  ]

(* ---------------------------------------------------------- allocation *)

(* n above Max_young_wosize (256 words): a result array of that size is
   allocated directly on the major heap, so any minor-heap word is a
   boxed float or a closure *)
let n = 1000

let laplacian n =
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i 2.;
    if i > 0 then Sparse.add b i (i - 1) (-1.);
    if i < n - 1 then Sparse.add b i (i + 1) (-1.)
  done;
  Sparse.finalize b

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_words msg ~max f =
  let w = minor_words f in
  Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words <= %.0f" msg w max) true (w <= max)

let allocation_tests =
  let a = laplacian n in
  let x = Array.init n (fun i -> sin (float_of_int i)) in
  let b = Array.init n (fun i -> cos (float_of_int i)) in
  [
    test "per-request kernels allocate nothing on the minor heap" (fun () ->
        check_words "Sparse.mat_vec" ~max:0. (fun () ->
            ignore (Sys.opaque_identity (Sparse.mat_vec a x)));
        check_words "Sparse.all_finite" ~max:0. (fun () ->
            ignore (Sys.opaque_identity (Sparse.all_finite a)));
        check_words "Vec.all_finite" ~max:0. (fun () ->
            ignore (Sys.opaque_identity (Vec.all_finite b)));
        check_words "Vec.sub" ~max:0. (fun () -> ignore (Sys.opaque_identity (Vec.sub b x)));
        (* a float returned from a call is boxed once: 2 words, whatever n *)
        check_words "Sparse.residual_norm2" ~max:2. (fun () ->
            ignore (Sys.opaque_identity (Sparse.residual_norm2 a b x)));
        check_words "Vec.max_elt" ~max:2. (fun () ->
            ignore (Sys.opaque_identity (Vec.max_elt x))));
    test "an exact-hit solve request stays under 2000 minor words" (fun () ->
        (* the whole request: cache key, both cache lookups, preflight,
           one true residual, spans, metrics and the response record *)
        let engine = Engine.create () in
        let req =
          {
            P.id = "hit";
            kind =
              P.Solve
                { geometry = P.default_geometry; resolution = 1; tol = 1e-10; deadline_s = None };
          }
        in
        ignore (Engine.handle engine req);
        ignore (Engine.handle engine req);
        let response = ref None in
        check_words "Engine.handle" ~max:2000. (fun () ->
            response := Some (Engine.handle engine req));
        match !response with
        | Some { P.result = Ok (P.Solved s); _ } ->
          Alcotest.(check bool) "an exact warm start" true (s.P.cache.P.warm = P.Warm_exact)
        | _ -> Alcotest.fail "expected a solved response");
  ]

let suite = ("kernels", oracle_tests @ allocation_tests)
