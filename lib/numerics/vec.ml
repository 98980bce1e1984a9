type t = float array

let create n x = Array.make n x
let zeros n = create n 0.
let init = Array.init
let copy = Array.copy
let dim = Array.length
let get (v : t) i = v.(i)
let set (v : t) i x = v.(i) <- x
let of_list = Array.of_list
let to_list = Array.to_list

let check_same_dim name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length x) (Array.length y))

let dot x y =
  check_same_dim "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

module Pool = Ttsv_parallel.Pool

(* Chunk size of the deterministic reductions: fixed, never derived from
   the pool, so pooled and sequential runs fold the identical partials. *)
let reduce_chunk = 2048

let partial_dot (x : t) (y : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let pdot ?pool x y =
  check_same_dim "pdot" x y;
  Pool.map_reduce ~chunk:reduce_chunk
    (Option.value pool ~default:Pool.seq)
    ~n:(Array.length x)
    ~map:(fun ~lo ~hi -> partial_dot x y lo hi)
    ~reduce:( +. ) ~init:0.

let pnorm2 ?pool x = sqrt (pdot ?pool x x)

let paxpy ?pool a x y =
  check_same_dim "paxpy" x y;
  Pool.for_chunks ~chunk:reduce_chunk
    (Option.value pool ~default:Pool.seq)
    (Array.length x)
    (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        y.(i) <- (a *. x.(i)) +. y.(i)
      done)

(* Fused CG update kernels: one pass over the index space instead of
   two, one pool dispatch instead of two.  Element-wise (no reduction),
   so pooled and sequential results are bitwise identical. *)

let paxpy2 ?pool a p q x r =
  check_same_dim "paxpy2" p x;
  check_same_dim "paxpy2" q r;
  check_same_dim "paxpy2" p q;
  Pool.for_chunks ~chunk:reduce_chunk
    (Option.value pool ~default:Pool.seq)
    (Array.length x)
    (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        x.(i) <- (a *. p.(i)) +. x.(i);
        r.(i) <- r.(i) -. (a *. q.(i))
      done)

let pxpby ?pool z b p =
  check_same_dim "pxpby" z p;
  Pool.for_chunks ~chunk:reduce_chunk
    (Option.value pool ~default:Pool.seq)
    (Array.length p)
    (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        p.(i) <- z.(i) +. (b *. p.(i))
      done)

let norm_inf x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !acc then acc := a
  done;
  !acc

let norm1 x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. Float.abs x.(i)
  done;
  !acc

(* The kernels below are loops over [Array.create_float]: a polymorphic
   [Array] higher-order function boxes every float it reads or returns. *)

let add x y =
  check_same_dim "add" x y;
  let z = Array.create_float (Array.length x) in
  for i = 0 to Array.length x - 1 do
    z.(i) <- x.(i) +. y.(i)
  done;
  z

let sub x y =
  check_same_dim "sub" x y;
  let z = Array.create_float (Array.length x) in
  for i = 0 to Array.length x - 1 do
    z.(i) <- x.(i) -. y.(i)
  done;
  z

let scale a x =
  let z = Array.create_float (Array.length x) in
  for i = 0 to Array.length x - 1 do
    z.(i) <- a *. x.(i)
  done;
  z

let axpy a x y =
  check_same_dim "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let scale_in_place a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let map = Array.map

let map2 f x y =
  check_same_dim "map2" x y;
  let z = Array.create_float (Array.length x) in
  for i = 0 to Array.length x - 1 do
    z.(i) <- f x.(i) y.(i)
  done;
  z

let sum x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. x.(i)
  done;
  !acc

let all_finite x =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length x do
    ok := Float.is_finite x.(!i);
    incr i
  done;
  !ok

let nonempty name x =
  if Array.length x = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector")

(* x.(0) is both the seed and the first entry visited, so the result is
   [Array.fold_left Float.max x.(0) x] bit for bit: NaN propagates and
   +0 beats -0 *)
let max_elt x =
  nonempty "max_elt" x;
  let acc = ref x.(0) in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc x.(i)
  done;
  !acc

let min_elt x =
  nonempty "min_elt" x;
  let acc = ref x.(0) in
  for i = 0 to Array.length x - 1 do
    acc := Float.min !acc x.(i)
  done;
  !acc

let argmax x =
  nonempty "argmax" x;
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let mean x =
  nonempty "mean" x;
  sum x /. float_of_int (Array.length x)

let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > atol +. (rtol *. Float.abs y.(i)) then ok := false
  done;
  !ok

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need n >= 2";
  let h = (b -. a) /. float_of_int (n - 1) in
  init n (fun i -> a +. (h *. float_of_int i))

let pp ppf v =
  Format.fprintf ppf "[@[";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.6g" x)
    v;
  Format.fprintf ppf "@]]"
