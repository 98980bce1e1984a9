(* Child processes of the benchmark: the server it talks to over pipes,
   and helpers it runs to completion.  Every child is waited for. *)

type t = { pid : int; to_child : out_channel; from_child : in_channel }

(* observability and fault injection are chosen per run by flags, never
   inherited from whoever launched the benchmark *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun p -> String.starts_with ~prefix:(p ^ "=") kv)
              [ "TTSV_TRACE"; "TTSV_METRICS"; "TTSV_FAULTS" ]))
  |> Array.of_list

let live = ref []

let spawn ~stderr_to prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile stderr_to [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) (child_env ()) in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  live := pid :: !live;
  { pid; to_child = Unix.out_channel_of_descr in_w; from_child = Unix.in_channel_of_descr out_r }

let send t lines =
  List.iter
    (fun l ->
      output_string t.to_child l;
      output_char t.to_child '\n')
    lines;
  flush t.to_child

let recv t = In_channel.input_line t.from_child

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (( <> ) pid) !live;
  status

(* Close the child's stdin, read whatever it still writes, and wait.
   [Ok rest] when it exited 0. *)
let finish t =
  close_out_noerr t.to_child;
  let rest = In_channel.input_all t.from_child in
  close_in_noerr t.from_child;
  match reap t.pid with
  | Unix.WEXITED 0 -> Ok rest
  | Unix.WEXITED n -> Error (Printf.sprintf "exit %d" n)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "signal %d" s)

(* last resort on the way out: no child outlives the benchmark *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

(* VmHWM, the resident-set high-water mark, in MB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:Float.nan

(* run [prog args] to completion and return its stdout *)
let output prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok out
  | _ -> Error (prog ^ " failed")
