(* The host block every result carries: a number measured on an
   unrecorded machine cannot be compared with anything. *)

module J = Ttsv_obs.Json

let nproc () =
  match Proc.output "nproc" [] with
  | Ok s -> ( match int_of_string_opt (String.trim s) with Some n -> J.Int n | None -> J.Null)
  | Error _ | (exception Unix.Unix_error _) -> J.Null

(* what the CLI's default pool would use here: the server is started
   without --domains, so it is this count *)
let default_pool_domains () = Ttsv_parallel.Pool.with_pool Ttsv_parallel.Pool.domains

let block () =
  J.Obj
    [
      ("nproc", nproc ());
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("pool_domains", J.Int (default_pool_domains ()));
      ( "TTSV_DOMAINS",
        match Sys.getenv_opt "TTSV_DOMAINS" with Some v -> J.String v | None -> J.Null );
      ("ocaml", J.String Sys.ocaml_version);
    ]
