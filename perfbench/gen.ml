(* Seeded workload generators.  The program under test only ever sees
   the JSONL lines these produce; the same seed gives the same bytes. *)

module P = Ttsv_service.Protocol
module J = Ttsv_obs.Json

type item = Request of P.request | Malformed of string

let line = function
  | Request r -> J.to_string (P.request_to_json r)
  | Malformed s -> s

(* three decimals keep the lines readable; distinctness is enforced by
   key, not assumed from the draw *)
let um x = Float.round (x *. 1000.) /. 1000.

let geometry rng ~radius:(r0, r1) ~liner:(l0, l1) ~tsi:(t0, t1) =
  {
    P.default_geometry with
    P.radius_um = um (Rng.uniform rng r0 r1);
    liner_um = um (Rng.uniform rng l0 l1);
    tsi_um = um (Rng.uniform rng t0 t1);
  }

let solve ?(resolution = 1) geometry = { P.geometry; resolution; tol = 1e-10; deadline_s = None }

(* Every cache key a request touches: one per solve, one per sweep
   point (the engine meshes each point on its own).  [Vec.linspace] is
   the engine's own point rule. *)
let sweep_solves (sw : P.sweep) =
  Array.to_list (Ttsv_numerics.Vec.linspace sw.P.from_um sw.P.to_um sw.P.points)
  |> List.map (fun x ->
         let g = sw.P.base.P.geometry in
         let g =
           match sw.P.param with
           | P.Radius -> { g with P.radius_um = x }
           | P.Liner -> { g with P.liner_um = x }
           | P.Tsi -> { g with P.tsi_um = x }
         in
         (x, { sw.P.base with P.geometry = g }))

let solves_of_kind = function
  | P.Solve s -> [ s ]
  | P.Sweep sw -> List.map snd (sweep_solves sw)
  | P.Chip_alloc _ -> []

(* A malformed line the decoder must answer in place with [bad_json]:
   either a request cut short or plain text.  Never blank (blank lines
   are skipped, not answered) and never a newline inside. *)
let malformed rng template =
  if Rng.int rng 2 = 0 then
    let n = String.length template in
    String.sub template 0 (5 + Rng.int rng (n - 10))
  else Printf.sprintf "not a request #%d" (Rng.int rng 1_000_000)

(* ---------------------------------------------------------- serve_cold *)

(* Distinct geometries inside Params.block_checked's bounds, resolution 1
   except for exactly [res2_per_block] of every [block] consecutive
   requests, so the mix — and with it p50 (a res-1 request) and p95 (a
   res-2 request) — does not drift with the seed. *)
let block = 10
let res2_per_block = 2

type cold = { rng : Rng.t; res_rng : Rng.t; seen : (string, unit) Hashtbl.t;
              mutable pattern : int array; mutable count : int }

let cold seed =
  let root = Rng.make seed in
  { rng = Rng.split root 1; res_rng = Rng.split root 2; seen = Hashtbl.create 1024;
    pattern = [||]; count = 0 }

let rec fresh_geometry c =
  let g = geometry c.rng ~radius:(2., 10.) ~liner:(0.3, 3.) ~tsi:(20., 80.) in
  let key = P.solve_key (solve g) in
  if Hashtbl.mem c.seen key then fresh_geometry c
  else (
    Hashtbl.add c.seen key ();
    g)

let next_cold c =
  let i = c.count mod block in
  if i = 0 then (
    c.pattern <- Array.init block (fun k -> if k < res2_per_block then 2 else 1);
    Rng.shuffle c.res_rng c.pattern);
  let resolution = c.pattern.(i) in
  let id = Printf.sprintf "c%d" c.count in
  c.count <- c.count + 1;
  Request { P.id; kind = P.Solve (solve ~resolution (fresh_geometry c)) }

(* ----------------------------------------------------------- serve_hot *)

(* A small catalogue of request templates — [n_solves] solves (two at
   resolution 2) and two repeated sweeps — with Zipf popularity over a
   seeded rank order.  Its keys (solves plus every sweep point) fit the
   engine's default 32/32/64 cache capacities. *)
let n_solves = 20
let sweep_points = 4
let zipf_s = 1.1

type hot = { templates : P.kind array; cdf : float array; draw : Rng.t; bad : Rng.t;
             mutable batches : int }

let hot seed =
  let root = Rng.make seed in
  let geo = Rng.split root 1 in
  let seen = Hashtbl.create 64 in
  let rec distinct f =
    let k = f () in
    let key = String.concat "|" (List.map P.solve_key (solves_of_kind k)) in
    if Hashtbl.mem seen key then distinct f
    else (
      Hashtbl.add seen key ();
      k)
  in
  let solves =
    List.init n_solves (fun i ->
        distinct (fun () ->
            let g = geometry geo ~radius:(3., 8.) ~liner:(0.5, 2.5) ~tsi:(30., 60.) in
            P.Solve (solve ~resolution:(if i < 2 then 2 else 1) g)))
  in
  let sweep param ~from_um ~to_um =
    distinct (fun () ->
        let g = geometry geo ~radius:(3., 8.) ~liner:(0.5, 2.5) ~tsi:(30., 60.) in
        P.Sweep { P.base = solve g; param; from_um; to_um; points = sweep_points })
  in
  let templates =
    Array.of_list
      (solves @ [ sweep P.Radius ~from_um:4. ~to_um:7.; sweep P.Liner ~from_um:0.5 ~to_um:2.5 ])
  in
  (* the two resolution-2 solves and the two sweeps cost several times a
     plain solve, so their popularity ranks are fixed and only the
     plain solves' ranks are shuffled: the cost mix does not move with
     the seed *)
  let fixed = [ (0, 4); (1, 11); (n_solves, 2); (n_solves + 1, 7) ] in
  let free =
    Array.of_list
      (List.filter
         (fun r -> not (List.exists (fun (_, f) -> f = r) fixed))
         (List.init (Array.length templates) (fun i -> i + 1)))
  in
  Rng.shuffle (Rng.split root 2) free;
  let next_free = ref 0 in
  let ranks =
    Array.init (Array.length templates) (fun i ->
        match List.assoc_opt i fixed with
        | Some r -> r
        | None ->
          incr next_free;
          free.(!next_free - 1))
  in
  let w = Array.map (fun r -> 1. /. (float_of_int r ** zipf_s)) ranks in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  { templates; cdf; draw = Rng.split root 3; bad = Rng.split root 4; batches = 0 }

let pick h =
  let u = Rng.float h.draw in
  let rec find i = if i >= Array.length h.cdf - 1 || u < h.cdf.(i) then i else find (i + 1) in
  h.templates.(find 0)

(* One batch of [size] lines: exactly one malformed line at a seeded
   position, the rest Zipf draws.  The first batch names every template
   once, so every key is touched before the measured batches start. *)
let next_hot h ~size =
  let b = h.batches in
  h.batches <- b + 1;
  let bad_at = Rng.int h.bad size in
  let first = if b = 0 then Array.to_list h.templates else [] in
  let rec fill j pending acc =
    if j = size then Array.of_list (List.rev acc)
    else
      let id = Printf.sprintf "h%d-%d" b j in
      if j = bad_at then
        let template = J.to_string (P.request_to_json { P.id; kind = h.templates.(0) }) in
        fill (j + 1) pending (Malformed (malformed h.bad template) :: acc)
      else
        let kind, pending =
          match pending with k :: rest -> (k, rest) | [] -> (pick h, [])
        in
        fill (j + 1) pending (Request { P.id; kind } :: acc)
  in
  fill 0 first []
