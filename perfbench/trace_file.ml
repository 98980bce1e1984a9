(* Reading a ttsv.trace.v2 file back: the span tree through the
   program's own Profile reader, and the metric registry snapshot from
   the [summary] lines written when the trace closed. *)

module J = Ttsv_obs.Json
module Profile = Ttsv_obs.Profile

type t = { spans : Profile.span list; summary : (string * J.t) list }

let load path =
  let ( let* ) = Result.bind in
  let* profile = Profile.load path in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let summary =
    List.filter_map
      (fun l ->
        match J.parse l with
        | Ok j when J.member "type" j = Some (J.String "summary") -> (
          match (J.member "name" j, J.member "data" j) with
          | Some (J.String name), Some data -> Some (name, data)
          | _ -> None)
        | _ -> None)
      lines
  in
  Ok { spans = profile.Profile.spans; summary }

let data t name = List.assoc_opt name t.summary
let num key j = Option.bind (J.member key j) J.to_float_opt

(* absent instruments read as zero: a counter nobody bumped never
   reaches the registry snapshot *)
let counter t name =
  match Option.bind (data t name) (num "value") with Some v -> v | None -> 0.

let gauge = counter

let hist t name key = match Option.bind (data t name) (num key) with Some v -> v | None -> 0.

let named t name = List.filter (fun (s : Profile.span) -> s.Profile.name = name) t.spans
let durations t name = List.map (fun (s : Profile.span) -> s.Profile.dur) (named t name)
let total t name = List.fold_left ( +. ) 0. (durations t name)

let mean_dur t name =
  match durations t name with [] -> 0. | ds -> total t name /. float_of_int (List.length ds)

(* Share of [parent]-span time not covered by its direct children named
   in [children]: the time no instrumented layer accounts for. *)
let unattributed t ~parent ~children =
  let parents = named t parent in
  let ids = Hashtbl.create 64 in
  List.iter (fun (s : Profile.span) -> Hashtbl.replace ids s.Profile.id ()) parents;
  let covered =
    List.fold_left
      (fun acc (s : Profile.span) ->
        match s.Profile.parent with
        | Some p when Hashtbl.mem ids p && List.mem s.Profile.name children -> acc +. s.Profile.dur
        | _ -> acc)
      0. t.spans
  in
  let whole = total t parent in
  if whole > 0. then Float.max 0. ((whole -. covered) /. whole) else 0.

(* Spans of [name] that have some descendant whose name starts with
   [prefix]. *)
let count_with_descendant t ~name ~prefix =
  let parent = Hashtbl.create 1024 in
  List.iter
    (fun (s : Profile.span) -> Hashtbl.replace parent s.Profile.id (s.Profile.parent, s.Profile.name))
    t.spans;
  let hit = Hashtbl.create 64 in
  List.iter
    (fun (s : Profile.span) ->
      if String.starts_with ~prefix s.Profile.name then
        let rec up = function
          | None -> ()
          | Some id -> (
            match Hashtbl.find_opt parent id with
            | Some (p, n) ->
              if n = name then Hashtbl.replace hit id ();
              up p
            | None -> ())
        in
        up s.Profile.parent)
    t.spans;
  Hashtbl.length hit

let domains t =
  List.sort_uniq compare (List.map (fun (s : Profile.span) -> s.Profile.domain) t.spans)
  |> List.length
