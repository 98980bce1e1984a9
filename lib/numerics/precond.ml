module Pool = Ttsv_parallel.Pool
module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault

(* Constructors are fallible by contract, so the chaos "precond" fault
   site maps onto the existing Error channel: callers (the Robust
   ladder) already demote on any construction failure. *)
let injected () = Fault.fire "precond"
let injected_error = "injected construction fault"

type kind = Jacobi | Ssor of float | Ic0 of float | Mg of int | Chol

type t = {
  kind : kind;
  dim : int;
  apply_fn : ?pool:Pool.t -> Vec.t -> Vec.t;
}

let name t =
  match t.kind with
  | Jacobi -> "jacobi"
  | Ssor _ -> "ssor"
  | Ic0 _ -> "ic0"
  | Mg _ -> "mg"
  | Chol -> "chol"

let dim t = t.dim
let ic0_shift t = match t.kind with Ic0 s -> Some s | _ -> None
let ssor_omega t = match t.kind with Ssor w -> Some w | _ -> None
let mg_levels t = match t.kind with Mg l -> Some l | _ -> None

let apply ?pool t r =
  if Array.length r <> t.dim then
    invalid_arg
      (Printf.sprintf "Precond.apply: vector has dimension %d, expected %d" (Array.length r)
         t.dim);
  t.apply_fn ?pool r

(* ------------------------------------------------------------- Jacobi *)

(* The diagonal fallback: never fails.  Zero/denormal diagonal entries
   map to 1 (identity on that component) so a structurally defective
   matrix still gets an answer from CG's own guards rather than a
   division blow-up here. *)
let jacobi_of_diagonal d =
  let n = Array.length d in
  let inv = Array.map (fun di -> if Float.abs di > 1e-300 then 1. /. di else 1.) d in
  let apply_fn ?pool r =
    let z = Array.make n 0. in
    Pool.for_chunks ~chunk:2048
      (Option.value pool ~default:Pool.seq)
      n
      (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          z.(i) <- inv.(i) *. r.(i)
        done);
    z
  in
  { kind = Jacobi; dim = n; apply_fn }

let jacobi a = jacobi_of_diagonal (Sparse.diagonal a)

(* --------------------------------------------------------------- SSOR *)

(* M = (D + wL) D^-1 (D + wU) / (w (2 - w)): matrix-free in the sense
   that only the CSR arrays of A are referenced — no factorization is
   stored.  Each application is two O(nnz) triangular sweeps, reusing
   the same row walk as the Gauss-Seidel machinery.  The sweeps are
   inherently sequential (each unknown depends on the previous ones), so
   [?pool] is ignored: pooled and sequential applications are trivially
   identical. *)
let ssor ?(omega = 1.0) a =
  if not (omega > 0. && omega < 2.) then invalid_arg "Precond.ssor: omega must be in (0, 2)";
  let n = Sparse.rows a in
  if injected () then Error injected_error
  else if Sparse.cols a <> n then Error "matrix not square"
  else begin
    let d = Sparse.diagonal a in
    if Array.exists (fun di -> Float.abs di < 1e-300) d then Error "zero diagonal entry"
    else begin
      let row_ptr, col_idx, values = Sparse.csr a in
      let scale = omega *. (2. -. omega) in
      let apply_fn ?pool:_ r =
        (* forward sweep: (D + wL) u = r *)
        let u = Array.make n 0. in
        for i = 0 to n - 1 do
          let acc = ref r.(i) in
          let k = ref row_ptr.(i) in
          let stop = row_ptr.(i + 1) in
          while !k < stop && col_idx.(!k) < i do
            acc := !acc -. (omega *. values.(!k) *. u.(col_idx.(!k)));
            incr k
          done;
          u.(i) <- !acc /. d.(i)
        done;
        (* backward sweep: (D + wU) z = D u, then scale by w (2 - w) *)
        let z = Array.make n 0. in
        for i = n - 1 downto 0 do
          let acc = ref (d.(i) *. u.(i)) in
          for k = row_ptr.(i + 1) - 1 downto row_ptr.(i) do
            let j = col_idx.(k) in
            if j > i then acc := !acc -. (omega *. values.(k) *. z.(j))
          done;
          z.(i) <- scale *. !acc /. d.(i)
        done;
        z
      in
      Ok { kind = Ssor omega; dim = n; apply_fn }
    end
  end

(* -------------------------------------------------------------- IC(0) *)

let default_shifts = [ 0.; 1e-3; 1e-2; 1e-1; 1. ]

(* Incomplete Cholesky with zero fill: L has exactly the lower-triangle
   sparsity of A.  Entries are produced row by row,

      L[i,j] = (A[i,j] - sum_{k<j} L[i,k] L[j,k]) / L[j,j]   (j < i)
      L[i,i] = sqrt(A[i,i] (1 + shift) - sum_{k<i} L[i,k]^2)

   with the inner sums computed as sorted-merge intersections of the two
   CSR rows.  A non-positive pivot is the classical IC(0) breakdown on
   matrices that are SPD but not H-matrices; the standard remedy is to
   refactor with a progressively larger relative diagonal shift
   (Manteuffel 1980), which this constructor does internally before
   giving up. *)
let ic0 ?(shifts = default_shifts) ?budget a =
  let n = Sparse.rows a in
  if injected () then Error injected_error
  else if Sparse.cols a <> n then Error "matrix not square"
  else begin
    let row_ptr, col_idx, values = Sparse.csr a in
    (* lower-triangular pattern, diagonal included and required *)
    let l_ptr = Array.make (n + 1) 0 in
    let count = ref 0 in
    let missing_diag = ref (-1) in
    for i = 0 to n - 1 do
      l_ptr.(i) <- !count;
      let has_diag = ref false in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_idx.(k) in
        if j < i then incr count
        else if j = i then begin
          has_diag := true;
          incr count
        end
      done;
      if (not !has_diag) && !missing_diag < 0 then missing_diag := i
    done;
    l_ptr.(n) <- !count;
    if !missing_diag >= 0 then
      Error (Printf.sprintf "row %d has no stored diagonal entry" !missing_diag)
    else begin
      let nnz_l = !count in
      let l_col = Array.make nnz_l 0 in
      let a_low = Array.make nnz_l 0. in
      let pos = ref 0 in
      for i = 0 to n - 1 do
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let j = col_idx.(k) in
          if j <= i then begin
            l_col.(!pos) <- j;
            a_low.(!pos) <- values.(k);
            incr pos
          end
        done
      done;
      (* columns sorted within each row, so the diagonal of row i is the
         last entry of its lower pattern: index l_ptr.(i+1) - 1 *)
      let l_val = Array.make nnz_l 0. in
      let factor shift =
        let ok = ref true in
        let i = ref 0 in
        while !ok && !i < n do
          let rlo = l_ptr.(!i) and rhi = l_ptr.(!i + 1) in
          let k = ref rlo in
          while !ok && !k < rhi do
            let j = l_col.(!k) in
            (* s = <row i, row j> over shared columns < j *)
            let s = ref 0. in
            let pa = ref rlo and pb = ref l_ptr.(j) in
            let alim = !k and blim = l_ptr.(j + 1) - 1 in
            while !pa < alim && !pb < blim do
              let ca = l_col.(!pa) and cb = l_col.(!pb) in
              if ca = cb then begin
                s := !s +. (l_val.(!pa) *. l_val.(!pb));
                incr pa;
                incr pb
              end
              else if ca < cb then incr pa
              else incr pb
            done;
            if j < !i then l_val.(!k) <- (a_low.(!k) -. !s) /. l_val.(l_ptr.(j + 1) - 1)
            else begin
              let piv = (a_low.(!k) *. (1. +. shift)) -. !s in
              if piv > 1e-300 then l_val.(!k) <- sqrt piv else ok := false
            end;
            incr k
          done;
          incr i
        done;
        !ok
      in
      (* each shift retry is a full O(nnz) refactorization, so the budget
         is polled between them: an expired budget reports as a
         construction failure and the ladder demotes to a cheaper rung *)
      let rec attempt = function
        | [] -> Error "non-positive pivot at every diagonal shift"
        | shift :: rest -> (
          match Option.bind budget Budget.check with
          | Some v -> Error (Format.asprintf "budget expired (%a)" Budget.pp_verdict v)
          | None -> if factor shift then Ok shift else attempt rest)
      in
      match attempt shifts with
      | Error _ as e -> e
      | Ok shift ->
        let apply_fn ?pool:_ r =
          (* forward substitution: L y = r *)
          let y = Array.make n 0. in
          for i = 0 to n - 1 do
            let acc = ref r.(i) in
            let di = l_ptr.(i + 1) - 1 in
            for k = l_ptr.(i) to di - 1 do
              acc := !acc -. (l_val.(k) *. y.(l_col.(k)))
            done;
            y.(i) <- !acc /. l_val.(di)
          done;
          (* backward substitution: L^T z = y, via column saxpy on L's
             rows (in place on y) *)
          for i = n - 1 downto 0 do
            let di = l_ptr.(i + 1) - 1 in
            let zi = y.(i) /. l_val.(di) in
            y.(i) <- zi;
            for k = l_ptr.(i) to di - 1 do
              let j = l_col.(k) in
              y.(j) <- y.(j) -. (l_val.(k) *. zi)
            done
          done;
          y
        in
        Ok { kind = Ic0 shift; dim = n; apply_fn }
    end
  end

(* ------------------------------------------------------ band Cholesky *)

(* sum_{lo<=k<hi} x.(ox+k) * y.(oy+k), in four independent partial sums
   so consecutive multiply-adds do not wait on each other: the band
   factor's inner loops are these dot products, and a single running sum
   serializes them on the floating-point add latency *)
let[@inline] dot x ox y oy lo hi =
  let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
  let k = ref lo in
  while !k + 3 < hi do
    let k0 = !k in
    s0 := !s0 +. (x.(ox + k0) *. y.(oy + k0));
    s1 := !s1 +. (x.(ox + k0 + 1) *. y.(oy + k0 + 1));
    s2 := !s2 +. (x.(ox + k0 + 2) *. y.(oy + k0 + 2));
    s3 := !s3 +. (x.(ox + k0 + 3) *. y.(oy + k0 + 3));
    k := k0 + 4
  done;
  while !k < hi do
    s0 := !s0 +. (x.(ox + !k) *. y.(oy + !k));
    incr k
  done;
  !s0 +. !s1 +. (!s2 +. !s3)

(* The split factor's two outer parts.  In a band of half-bandwidth bw
   the bw rows [m, m+bw) separate [0, m) from [m+bw, n), so the lower
   part is factored in ascending order and the upper part in descending
   order, each as an independent band: both then couple to the
   separator only through their last bw rows.  A part's local row i is
   global row [first + step*i]; its array holds q = p + s rows of bw+1
   entries, L[i,j] (i-bw <= j <= i) at i*(bw+1) + bw - i + j, so a row's
   band is contiguous and its diagonal is the row's last entry.  Rows
   [0, p) are the part's own Cholesky factor; rows [p, q) are the s
   separator rows, whose columns < p become the coupling block W of the
   factor and whose columns >= p keep A's separator block. *)
type part = { l : float array; p : int; q : int; first : int; step : int }

(* Rows are produced in order,

      L[i,j] = (A[i,j] - sum_{lo_i<=k<j} L[i,k] L[j,k]) / L[j,j]   (j < min i p)
      L[i,i] = sqrt(A[i,i] - sum_{lo_i<=k<i} L[i,k]^2)             (i < p)

   with lo_i = max 0 (i-bw), overwriting A's band in place.  The budget
   is polled once per [block] rows, costing about one matvec (the work
   unit), and each block ticks one unit: a deadline or work cap stops a
   large factorization mid-way as a construction failure. *)
let factor_part ~bw ~block ?budget { l; p; q; first; step } =
  let w = bw + 1 in
  let rec go i =
    if i >= q then Ok ()
    else
      match if i mod block = 0 then Option.bind budget Budget.check else None with
      | Some v -> Error (Format.asprintf "budget expired (%a)" Budget.pp_verdict v)
      | None ->
        let oi = (i * w) + bw - i and lo = Int.max 0 (i - bw) in
        for j = lo to Int.min i p - 1 do
          let oj = (j * w) + bw - j in
          l.(oi + j) <- (l.(oi + j) -. dot l oi l oj lo j) /. l.(oj + j)
        done;
        let piv = if i < p then l.(oi + i) -. dot l oi l oi lo i else 1. in
        if not (piv > 1e-300) then
          Error (Printf.sprintf "non-positive pivot at row %d" (first + (step * i)))
        else begin
          if i < p then l.(oi + i) <- sqrt piv;
          if (i + 1) mod block = 0 then Option.iter (fun b -> Budget.tick b) budget;
          go (i + 1)
        end
  in
  go 0

(* Runs [f 0] and [f 1], concurrently when the pool has a spare domain
   and the caller is not already a pool worker, in task order
   otherwise. *)
let pair pool f =
  Pool.for_chunks ~chunk:1 ~min_size:2 (Option.value pool ~default:Pool.seq) 2 (fun ~lo ~hi:_ ->
      f lo)

(* L y = r on the part's rows, leaving W y in the separator slots *)
let forward_part ~bw { l; p; q; first; step } v r =
  let w = bw + 1 in
  for i = 0 to q - 1 do
    let oi = (i * w) + bw - i and lo = Int.max 0 (i - bw) in
    if i < p then v.(i) <- (r.(first + (step * i)) -. dot l oi v 0 lo i) /. l.(oi + i)
    else v.(i) <- dot l oi v 0 lo p
  done

(* L^T z = y - W^T z_s, given z_s in the separator slots: column saxpy
   on L's rows (in place on v), then scatter the part's rows into z *)
let backward_part ~bw { l; p; q; first; step } v z =
  let w = bw + 1 in
  for i = q - 1 downto 0 do
    let oi = (i * w) + bw - i in
    let zi = if i < p then v.(i) /. l.(oi + i) else v.(i) in
    v.(i) <- zi;
    for k = Int.max 0 (i - bw) to Int.min i p - 1 do
      v.(k) <- v.(k) -. (l.(oi + k) *. zi)
    done
  done;
  for i = 0 to p - 1 do
    z.(first + (step * i)) <- v.(i)
  done

(* Exact Cholesky factor of a narrow band, A = L L^T, by a two-way
   dissection: the two outer parts above, then a dense s x s Cholesky of
   the separator's Schur complement

      S = A_ss - W_lo W_lo^T - W_up W_up^T   (s = bw)

   so that, in the order (lower part, upper part, separator),

      L = [ L_lo   0     0   ]
          [ 0      L_up  0   ]
          [ W_lo   W_up  L_s ].

   The parts are independent, so a pool runs them as a two-task kernel;
   the split depends only on n and bw and the arithmetic is the same on
   either domain, so pooled and sequential factors are bitwise equal.
   Only two parts, because the separator step is sequential and grows
   with their number.  Bands too short for each part to keep 2 bw rows
   are not split (s = 0, the upper part empty).  The factor costs
   n*bw^2/2 multiply-adds, so the band is admitted only under the direct
   rung's storage cap and when bw^2 <= n: then the factor costs at most
   ~n^2/2, and on the tensor grids the library builds it holds exactly
   for the 2-D unit cell numbered radius-fastest (bw = nr <= nz) and
   fails for every 3-D stack (bw = nx*ny). *)
let band_cholesky ?pool ?budget a =
  let n = Sparse.rows a in
  if injected () then Error injected_error
  else if Sparse.cols a <> n then Error "matrix not square"
  else begin
    let bw = Sparse.bandwidth a in
    if not (Banded.fits ~n ~bw && bw * bw <= n) then
      Error (Printf.sprintf "band too wide (half-bandwidth %d, order %d)" bw n)
    else begin
      let w = bw + 1 in
      let s, m = if n >= 5 * bw then (bw, (n - bw) / 2) else (0, n) in
      let lower =
        { l = Array.make ((m + s) * w) 0.; p = m; q = m + s; first = 0; step = 1 }
      in
      let upper =
        { l = Array.make ((n - m) * w) 0.; p = n - m - s; q = n - m; first = n - 1; step = -1 }
      in
      let parts = [| lower; upper |] in
      let row_ptr, col_idx, values = Sparse.csr a in
      for i = 0 to n - 1 do
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let j = col_idx.(k) in
          if j <= i then begin
            if i < lower.q then lower.l.((i * w) + bw - i + j) <- values.(k);
            (* A[i,j] = A[j,i] is the upper part's (n-1-j, n-1-i) *)
            if j >= m then begin
              let r = n - 1 - j in
              upper.l.((r * w) + bw - r + n - 1 - i) <- values.(k)
            end
          end
        done
      done;
      let block = Int.max 1 (Sparse.nnz a / Int.max 1 (bw * w / 2)) in
      let outcome = [| Ok (); Ok () |] in
      pair pool (fun t -> outcome.(t) <- factor_part ~bw ~block ?budget parts.(t));
      (* the separator in dense row-major s x s, after one more poll: a
         work cap then stops the factor iff the parts need at least that
         much work, whichever domain ticked first *)
      let sd = Array.make (s * s) 0. in
      let separator () =
        match Option.bind budget Budget.check with
        | Some v -> Error (Format.asprintf "budget expired (%a)" Budget.pp_verdict v)
        | None ->
          let ol i = (i * w) + bw - i in
          for x = 0 to s - 1 do
            let il = m + x and iu = n - m - 1 - x in
            for y = 0 to x do
              let jl = m + y and ju = n - m - 1 - y in
              sd.((x * s) + y) <-
                lower.l.(ol il + m + y)
                -. dot lower.l (ol il) lower.l (ol jl) (Int.max 0 (il - bw)) m
                -. dot upper.l (ol iu) upper.l (ol ju) (Int.max 0 (ju - bw)) upper.p
            done
          done;
          let rec go x =
            if x >= s then Ok ()
            else begin
              let ox = x * s in
              for y = 0 to x - 1 do
                let oy = y * s in
                sd.(ox + y) <- (sd.(ox + y) -. dot sd ox sd oy 0 y) /. sd.(oy + y)
              done;
              let piv = sd.(ox + x) -. dot sd ox sd ox 0 x in
              if not (piv > 1e-300) then
                Error (Printf.sprintf "non-positive pivot at row %d" (m + x))
              else begin
                sd.(ox + x) <- sqrt piv;
                go (x + 1)
              end
            end
          in
          go 0
      in
      match (outcome.(0), outcome.(1)) with
      | (Error _ as e), _ | Ok (), (Error _ as e) -> e
      | Ok (), Ok () -> (
        match separator () with
        | Error _ as e -> e
        | Ok () ->
          let apply_fn ?pool r =
            let z = Array.make n 0. in
            let vs = [| Array.make lower.q 0.; Array.make upper.q 0. |] in
            pair pool (fun t -> forward_part ~bw parts.(t) vs.(t) r);
            (* L_s y_s = r_s - W_lo y_lo - W_up y_up, then L_s^T z_s = y_s *)
            let ys = Array.make s 0. in
            for x = 0 to s - 1 do
              let rx = r.(m + x) -. vs.(0).(m + x) -. vs.(1).(n - m - 1 - x) in
              ys.(x) <- (rx -. dot sd (x * s) ys 0 0 x) /. sd.((x * s) + x)
            done;
            for x = s - 1 downto 0 do
              let zx = ys.(x) /. sd.((x * s) + x) in
              ys.(x) <- zx;
              for y = 0 to x - 1 do
                ys.(y) <- ys.(y) -. (sd.((x * s) + y) *. zx)
              done;
              z.(m + x) <- zx;
              vs.(0).(m + x) <- zx;
              vs.(1).(n - m - 1 - x) <- zx
            done;
            pair pool (fun t -> backward_part ~bw parts.(t) vs.(t) z);
            z
          in
          Ok { kind = Chol; dim = n; apply_fn })
    end
  end

(* ---------------------------------------------------------- multigrid *)

(* One symmetric V-cycle per application.  The hierarchy setup can fail
   (shape mismatch, zero diagonal, singular coarse operator, expired
   budget) and doubles as the "precond" chaos site, exactly like the
   other fallible constructors; the budget is captured by the hierarchy
   and keeps being polled inside every cycle, so an expiry mid-V-cycle
   surfaces as [Budget.Expired] from [apply]. *)
let mg ?pool ?budget ~shape a =
  if injected () then Error injected_error
  else
    match Multigrid.build ?pool ?budget ~shape a with
    | Error _ as e -> e
    | Ok hierarchy ->
      let apply_fn ?pool r = Multigrid.cycle ?pool hierarchy r in
      Ok { kind = Mg (Multigrid.num_levels hierarchy); dim = Sparse.rows a; apply_fn }
