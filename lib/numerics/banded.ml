type t = { n : int; bw : int; band : float array array }

let create ~n ~bw =
  if n < 0 || bw < 0 then invalid_arg "Banded.create: negative size";
  { n; bw; band = Array.make_matrix n ((2 * bw) + 1) 0. }

let fits ~n ~bw =
  let width = (2 * bw) + 1 in
  n * width <= 50_000_000 && width < n

let order m = m.n
let bandwidth m = m.bw

let in_band m i j = i >= 0 && i < m.n && j >= 0 && j < m.n && abs (i - j) <= m.bw

let get m i j = if in_band m i j then m.band.(i).(j - i + m.bw) else 0.

let set m i j x =
  if not (in_band m i j) then invalid_arg "Banded.set: outside band";
  m.band.(i).(j - i + m.bw) <- x

let add_to m i j x =
  if not (in_band m i j) then invalid_arg "Banded.add_to: outside band";
  m.band.(i).(j - i + m.bw) <- m.band.(i).(j - i + m.bw) +. x

let of_dense ~bw d =
  let n = Dense.rows d in
  if Dense.cols d <> n then invalid_arg "Banded.of_dense: matrix not square";
  let m = create ~n ~bw in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let x = Dense.get d i j in
      if x <> 0. then
        if abs (i - j) <= bw then set m i j x
        else invalid_arg "Banded.of_dense: nonzero outside band"
    done
  done;
  m

let to_dense m = Dense.init m.n m.n (fun i j -> get m i j)

let mat_vec m x =
  if Array.length x <> m.n then invalid_arg "Banded.mat_vec: dimension mismatch";
  let y = Array.create_float m.n in
  for i = 0 to m.n - 1 do
    let acc = ref 0. in
    let jlo = Int.max 0 (i - m.bw) and jhi = Int.min (m.n - 1) (i + m.bw) in
    for j = jlo to jhi do
      acc := !acc +. (get m i j *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let solve m0 b =
  if Array.length b <> m0.n then invalid_arg "Banded.solve: dimension mismatch";
  let n = m0.n and bw = m0.bw in
  let a = { m0 with band = Array.map Array.copy m0.band } in
  let x = Array.copy b in
  (* forward elimination within the band *)
  for k = 0 to n - 1 do
    let pivot = get a k k in
    if Float.abs pivot < 1e-300 then raise Dense.Singular;
    let ihi = Int.min (n - 1) (k + bw) in
    for i = k + 1 to ihi do
      let factor = get a i k /. pivot in
      if factor <> 0. then begin
        let jhi = Int.min (n - 1) (k + bw) in
        for j = k to jhi do
          add_to a i j (-.factor *. get a k j)
        done;
        x.(i) <- x.(i) -. (factor *. x.(k))
      end
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    let jhi = Int.min (n - 1) (i + bw) in
    for j = i + 1 to jhi do
      acc := !acc -. (get a i j *. x.(j))
    done;
    x.(i) <- !acc /. get a i i
  done;
  x
