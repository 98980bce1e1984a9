(* Every benchmark timer reads the monotonic clock: wall-clock time
   (Unix.gettimeofday) can step under NTP and would corrupt a sample. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ms s = 1000. *. s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mean seconds per call of [f], repeating it until [min_s] has elapsed:
   the compact models finish in microseconds, below one clock read's
   noise. *)
let per_call f =
  let min_s = 0.02 in
  let t0 = now () in
  let rec go n =
    ignore (Sys.opaque_identity (f ()));
    let dt = now () -. t0 in
    if dt >= min_s then dt /. float_of_int n else go (n + 1)
  in
  go 1
