module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material

type t = { grid : Grid.t; conductivity : float array; source : float array }

let make ~grid ~conductivity ~source =
  let n = Grid.cells grid in
  if Array.length conductivity <> n then invalid_arg "Problem.make: conductivity length mismatch";
  if Array.length source <> n then invalid_arg "Problem.make: source length mismatch";
  Array.iter
    (fun k -> if k <= 0. || not (Float.is_finite k) then
        invalid_arg "Problem.make: conductivities must be positive and finite")
    conductivity;
  { grid; conductivity = Array.copy conductivity; source = Array.copy source }

let total_source p = Ttsv_numerics.Vec.sum p.source
let cell_count p = Grid.cells p.grid

(* Shared discretization: the graded r-z grid, per-row layers, and the
   per-cell material classifier. *)
let discretize resolution stack =
  if resolution < 1 then invalid_arg "Problem.of_stack: resolution must be >= 1";
  let tsv = stack.Stack.tsv in
  let r_in = tsv.Tsv.radius and r_out = Tsv.outer_radius tsv in
  let r0 = sqrt (stack.Stack.footprint /. Float.pi) in
  (* radial faces: filler, liner, geometrically graded outside *)
  let n_fill = 3 * resolution and n_liner = 2 * resolution and n_outer = 10 * resolution in
  let r_faces =
    Array.of_list
      ((0. :: Grid.refine_interval 0. r_in n_fill)
      @ (r_in :: Grid.refine_interval r_in r_out n_liner)
      @ (r_out :: Grid.geometric_interval r_out r0 n_outer 1.25)
      @ [ r0 ])
  in
  let layers = Layers.of_stack ~resolution stack in
  let grid = Grid.make ~r_faces ~z_faces:(Layers.z_faces layers) in
  let row_layer = Layers.row_layers layers in
  assert (Array.length row_layer = Grid.nz grid);
  let material_at ir iz =
    let l = row_layer.(iz) in
    let rc = Grid.r_center grid ir in
    if l.Layers.tsv && rc < r_in then tsv.Tsv.filler
    else if l.Layers.tsv && rc < r_out then tsv.Tsv.liner
    else l.Layers.material
  in
  (grid, row_layer, material_at, r_out)

let of_stack ?(resolution = 1) stack =
  let grid, row_layer, material_at, r_out = discretize resolution stack in
  let nr = Grid.nr grid and nz = Grid.nz grid in
  let conductivity = Array.make (nr * nz) 0. in
  let source = Array.make (nr * nz) 0. in
  for iz = 0 to nz - 1 do
    let l = row_layer.(iz) in
    for ir = 0 to nr - 1 do
      let rc = Grid.r_center grid ir in
      let idx = Grid.index grid ir iz in
      conductivity.(idx) <- (material_at ir iz).Material.conductivity;
      let heated = if l.Layers.annular_source then rc > r_out else true in
      if heated && l.Layers.source_density > 0. then
        source.(idx) <- l.Layers.source_density *. Grid.volume grid ir iz
    done
  done;
  { grid; conductivity; source }

let materials_of_stack ?(resolution = 1) stack =
  let grid, _, material_at, _ = discretize resolution stack in
  let nr = Grid.nr grid in
  Array.init (Grid.cells grid) (fun idx -> material_at (idx mod nr) (idx / nr))

let uniform_column ~layers ~radius ~cells_per_layer ~top_flux =
  if layers = [] then invalid_arg "Problem.uniform_column: no layers";
  if cells_per_layer < 1 then invalid_arg "Problem.uniform_column: cells_per_layer must be >= 1";
  let r_faces = Array.of_list ((0. :: Grid.refine_interval 0. radius 4) @ [ radius ]) in
  let z_faces =
    let faces = ref [ 0. ] and z = ref 0. in
    List.iter
      (fun (th, _) ->
        let z1 = !z +. th in
        faces := List.rev_append (Grid.refine_interval !z z1 cells_per_layer) !faces;
        faces := z1 :: !faces;
        z := z1)
      layers;
    Array.of_list (List.rev !faces)
  in
  let grid = Grid.make ~r_faces ~z_faces in
  let nr = Grid.nr grid and nz = Grid.nz grid in
  let conductivity = Array.make (nr * nz) 1. in
  let source = Array.make (nr * nz) 0. in
  List.iteri
    (fun li (_, k) ->
      for s = 0 to cells_per_layer - 1 do
        let iz = (li * cells_per_layer) + s in
        for ir = 0 to nr - 1 do
          conductivity.(Grid.index grid ir iz) <- k
        done
      done)
    layers;
  (* spread the flux over the top row, proportionally to face area *)
  let total_area = Float.pi *. radius *. radius in
  for ir = 0 to nr - 1 do
    let idx = Grid.index grid ir (nz - 1) in
    source.(idx) <- top_flux *. Grid.axial_face_area grid ir /. total_area
  done;
  { grid; conductivity; source }
