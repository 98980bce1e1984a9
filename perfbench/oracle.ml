(* Correctness checks on what the server sent back.  [decode] reads a
   response line into the protocol's own type (so the encode timer can
   re-encode real responses); [check_stream] holds each answer to the
   line it must answer, in place. *)

module P = Ttsv_service.Protocol
module J = Ttsv_obs.Json

let ( let* ) = Result.bind

let field name j = match J.member name j with Some v -> Ok v | None -> Error ("no " ^ name)

let num name j =
  let* v = field name j in
  Option.to_result ~none:(name ^ " is not a number") (J.to_float_opt v)

let int name j =
  let* v = field name j in
  Option.to_result ~none:(name ^ " is not an integer") (J.to_int_opt v)

let str name j =
  let* v = field name j in
  Option.to_result ~none:(name ^ " is not a string") (J.to_string_opt v)

let bool name j =
  match J.member name j with Some (J.Bool b) -> Ok b | _ -> Error (name ^ " is not a bool")

let code_of_name = function
  | "bad_json" -> Ok P.Bad_json
  | "bad_request" -> Ok P.Bad_request
  | "invalid_geometry" -> Ok P.Invalid_geometry
  | "deadline_exceeded" -> Ok P.Deadline_exceeded
  | "solver_failure" -> Ok P.Solver_failure
  | "internal" -> Ok P.Internal
  | other -> Error ("unknown error code " ^ other)

let warm_of_name = function
  | "cold" -> Ok P.Cold
  | "exact" -> Ok P.Warm_exact
  | "neighbour" -> Ok P.Warm_neighbour
  | other -> Error ("unknown warm start " ^ other)

let payload j =
  let* kind = str "kind" j in
  match kind with
  | "solve" ->
    let* max_rise_k = num "max_rise_k" j in
    let* iterations = int "iterations" j in
    let* residual = num "residual" j in
    let* rung = str "rung" j in
    let* c = field "cache" j in
    let* operator_hit = bool "operator" c in
    let* precond_hit = bool "precond" c in
    let* warm = Result.bind (str "warm" c) warm_of_name in
    let* wall_s = num "wall_s" j in
    Ok
      (P.Solved
         { P.max_rise_k; iterations; residual; rung; cache = { P.operator_hit; precond_hit; warm };
           wall_s })
  | "sweep" ->
    let* points = field "points" j in
    let* sweep_points =
      match points with
      | J.List ps ->
        List.fold_right
          (fun p acc ->
            let* acc = acc in
            let* x_um = num "x_um" p in
            let* point_rise_k = num "max_rise_k" p in
            let* point_iterations = int "iterations" p in
            Ok ({ P.x_um; point_rise_k; point_iterations } :: acc))
          ps (Ok [])
      | _ -> Error "points is not a list"
    in
    let* sweep_iterations = int "iterations" j in
    let* warm_starts = int "warm_starts" j in
    let* sweep_wall_s = num "wall_s" j in
    Ok (P.Swept { P.sweep_points; sweep_iterations; warm_starts; sweep_wall_s })
  | other -> Error ("unsupported response kind " ^ other)

let decode line =
  let* j = J.parse line in
  let* schema = str "schema" j in
  if schema <> P.response_schema then Error ("schema " ^ schema)
  else
    let* request_id =
      match J.member "id" j with
      | Some J.Null -> Ok None
      | Some (J.String s) -> Ok (Some s)
      | _ -> Error "id is neither a string nor null"
    in
    let* status = str "status" j in
    let* result =
      match status with
      | "ok" -> Result.map Result.ok (payload j)
      | "error" ->
        let* e = field "error" j in
        let* code = Result.bind (str "code" e) code_of_name in
        let* message = str "message" e in
        let diagnostics = match J.member "diagnostics" e with Some J.Null | None -> None | d -> d in
        Ok (Error { P.code; message; diagnostics })
      | other -> Error ("status " ^ other)
    in
    Ok { P.request_id; result }

(* The answer at position [i] must be the answer to line [i]: a
   well-formed request's response carries its id and a result (a typed
   error on a well-formed request is a failure), a malformed line's is
   [bad_json] with no id.  A missing, extra or reordered answer shows as
   an id mismatch from that position on. *)
let check_one (item : Gen.item) line =
  match decode line with
  | Error e -> Error ("undecodable response: " ^ e)
  | Ok r -> (
    match (item, r.P.request_id, r.P.result) with
    | Gen.Malformed _, None, Error { P.code = P.Bad_json; _ } -> Ok r
    | Gen.Malformed _, _, _ -> Error "malformed line not answered in place with bad_json"
    | Gen.Request q, Some id, _ when id <> q.P.id ->
      Error (Printf.sprintf "answer for %S where %S was due" id q.P.id)
    | Gen.Request _, None, _ -> Error "answer without id where a request was due"
    | Gen.Request _, Some _, Error e ->
      Error (Printf.sprintf "%s: %s" (P.error_code_name e.P.code) e.P.message)
    | Gen.Request _, Some _, Ok _ -> Ok r)

let check_stream items lines =
  let n = Array.length items and got = Array.length lines in
  let verdicts =
    Array.init n (fun i -> if i < got then check_one items.(i) lines.(i) else Error "no answer")
  in
  if got > n then Array.append verdicts [| Error (Printf.sprintf "%d extra answers" (got - n)) |]
  else verdicts

let close ?(rel = 1e-6) expected got =
  Float.is_finite got && Float.abs (got -. expected) <= rel *. Float.abs expected
