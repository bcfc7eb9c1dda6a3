(* tamoptd: the solver daemon. Binds a Unix-domain or TCP socket,
   speaks the NDJSON protocol of Soctam_service.Protocol, and serves
   solve/sweep requests from a result cache on the connection threads,
   and cache misses behind an admission queue on up to --jobs solver
   domains, each started when a miss would otherwise wait. Optional
   side channels: a structured NDJSON request log (--log) and a
   Prometheus /metrics + /health HTTP listener (--metrics). *)

module Pool = Soctam_engine.Pool
module Json = Soctam_obs.Json
module Log = Soctam_obs.Log
module Addr = Soctam_service.Addr
module Service = Soctam_service.Service
module Server = Soctam_service.Server
module Http = Soctam_service.Http
module Store = Soctam_store.Store

open Cmdliner

let listen_arg =
  let doc =
    "Address to listen on: unix:$(i,PATH) (or any string containing a \
     slash) for a Unix-domain socket, tcp:$(i,HOST):$(i,PORT) or \
     $(i,HOST):$(i,PORT) for TCP."
  in
  Arg.(
    value
    & opt string "unix:/tmp/tamoptd.sock"
    & info [ "listen" ] ~docv:"ADDR" ~doc)

let jobs_arg =
  let doc =
    "Solver domains for cache misses, beside the daemon's own domain, \
     which accepts connections, does I/O and answers cache hits on the \
     connection threads. Each is started only when a miss would \
     otherwise wait, so up to $(docv) run. 0 uses one per core."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Result-cache capacity in entries; 0 disables caching." in
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Admission limit: work requests in flight beyond this are refused \
     with an \"overloaded\" error instead of queuing."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let stats_json_arg =
  let doc = "Write the final stats object to $(docv) on clean shutdown." in
  Arg.(
    value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let log_arg =
  let doc =
    "Structured request log: one JSON event per request line, to \
     $(docv) (size-rotated to $(docv).1) or to \"stderr\"."
  in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let log_max_bytes_arg =
  let doc = "Rotate the request log after roughly $(docv) bytes." in
  Arg.(
    value
    & opt int 67_108_864
    & info [ "log-max-bytes" ] ~docv:"BYTES" ~doc)

let log_trace_arg =
  let doc =
    "Only log events whose trace_id equals $(docv) — follow one \
     request through a busy daemon."
  in
  Arg.(
    value & opt (some string) None & info [ "log-trace" ] ~docv:"ID" ~doc)

let store_arg =
  let doc =
    "Persistent result store directory (created if absent): a \
     disk-backed second cache tier keyed like the in-memory LRU, \
     recovered on startup and shareable between daemon processes."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let store_segment_bytes_arg =
  let doc = "Rotate store segments at roughly $(docv) bytes." in
  Arg.(
    value
    & opt int 8_388_608
    & info [ "store-segment-bytes" ] ~docv:"BYTES" ~doc)

let metrics_arg =
  let doc =
    "Serve Prometheus text metrics on HTTP GET /metrics (and a \
     /health probe) at $(docv) (same address grammar as --listen)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics" ] ~docv:"ADDR" ~doc)

(* Misses promote solve data that dies soon after, while the live heap
   stays small; at OCaml 5.1's default of 120 the major heap grows with
   each solver domain. 40 paces the major GC to the live heap, for more
   GC work per allocated word (EXPERIMENTS P9). Overrides OCAMLRUNPARAM's
   [o=]. *)
let space_overhead = 40

let run listen jobs cache queue stats_json log_dest log_max_bytes log_trace
    store_dir store_segment_bytes metrics =
  let parsed =
    let ( let* ) = Result.bind in
    let* addr = Addr.of_string listen in
    let* metrics_addr =
      match metrics with
      | None -> Ok None
      | Some m -> Result.map Option.some (Addr.of_string m)
    in
    Ok (addr, metrics_addr)
  in
  match parsed with
  | Error msg ->
      Printf.eprintf "tamoptd: %s\n" msg;
      2
  | Ok (addr, metrics_addr) -> (
      try
        Gc.set { (Gc.get ()) with Gc.space_overhead };
        let jobs =
          if jobs < 0 then
            raise
              (Invalid_argument (Printf.sprintf "--jobs %d: negative" jobs))
          else if jobs = 0 then Domain.recommended_domain_count ()
          else jobs
        in
        let log =
          match log_dest with
          | None -> None
          | Some "stderr" -> Some (Log.create ?only_trace:log_trace Log.Stderr)
          | Some path ->
              Some
                (Log.create ?only_trace:log_trace
                   (Log.File { path; max_bytes = log_max_bytes }))
        in
        let store =
          Option.map
            (fun dir ->
              let store =
                Store.open_store ~segment_bytes:store_segment_bytes dir
              in
              let s = Store.stats store in
              Printf.printf
                "tamoptd: store %s recovered (%d records, %d segments%s%s)\n%!"
                dir s.Store.live s.Store.segments
                (if s.Store.torn_bytes > 0 then
                   Printf.sprintf ", %d torn bytes dropped" s.Store.torn_bytes
                 else "")
                (if s.Store.corrupt_frames > 0 then
                   Printf.sprintf ", %d corrupt frames skipped"
                     s.Store.corrupt_frames
                 else "");
              store)
            store_dir
        in
        (* [Pool] counts its caller, the daemon's domain: it runs no task. *)
        Pool.with_pool ~num_domains:(jobs + 1) (fun pool ->
            let service =
              Service.create ~cache_capacity:cache ~queue_capacity:queue
                ?log ?store ~pool ()
            in
            (* The metrics listener shares the service's shutdown flag:
               its accept loop exits when the daemon starts draining. *)
            let metrics_thread =
              Option.map
                (fun maddr ->
                  Thread.create
                    (fun () ->
                      try Http.serve ~service maddr
                      with Unix.Unix_error (err, fn, arg) ->
                        Printf.eprintf "tamoptd: metrics: %s: %s %s\n%!" fn
                          (Unix.error_message err) arg)
                    ())
                metrics_addr
            in
            let on_bound () =
              Printf.printf
                "tamoptd: listening on %s (solver domains: up to %d, on \
                 demand; cache=%d queue=%d%s)\n%!"
                (Addr.to_string addr) jobs cache queue
                (match metrics_addr with
                | Some m -> Printf.sprintf " metrics=%s" (Addr.to_string m)
                | None -> "")
            in
            Server.serve ~on_bound ~service addr;
            Option.iter Thread.join metrics_thread;
            Option.iter Log.close log;
            Option.iter Store.close store;
            (match stats_json with
            | Some path ->
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc
                      (Json.to_string_pretty (Service.stats_json service)))
            | None -> ());
            print_endline "tamoptd: shutdown complete");
        0
      with
      | Invalid_argument msg | Failure msg ->
          Printf.eprintf "tamoptd: %s\n" msg;
          2
      | Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "tamoptd: %s: %s %s\n" fn (Unix.error_message err)
            arg;
          2)

let () =
  let doc = "Solver daemon for SOC test access architecture design." in
  let term =
    Term.(
      const run $ listen_arg $ jobs_arg $ cache_arg $ queue_arg
      $ stats_json_arg $ log_arg $ log_max_bytes_arg $ log_trace_arg
      $ store_arg $ store_segment_bytes_arg $ metrics_arg)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "tamoptd" ~version:"1.0.0" ~doc) term))
