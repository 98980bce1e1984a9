(* SplitMix64: the benchmark's own generator, so its inputs depend only
   on the seed and this file — never on the program under test. *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* uniform in [0, 1), 53 bits *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.
let uniform t lo hi = lo +. ((hi -. lo) *. float t)
let int t n = Stdlib.min (n - 1) (truncate (float t *. float_of_int n))

(* an independent stream for one purpose, so adding a draw to one part
   of a workload never shifts another part's inputs *)
let split t salt = make (Int64.to_int (next t) lxor salt)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
