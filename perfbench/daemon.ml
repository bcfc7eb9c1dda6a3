(* One [tamoptd] child process: spawn, control connection, stats,
   peak RSS, shutdown. *)

module Json = Soctam_obs.Json
module Clock = Soctam_obs.Clock
module Addr = Soctam_service.Addr
module Client = Soctam_service.Client

type config = {
  exe : string;
  jobs : int;
  cache : int;
  queue : int;
  store_dir : string option;
}

type t = {
  pid : int;
  addr : Addr.t;
  control : Client.t;
  mutable protocol_ops : int;  (** stats/ping lines sent on [control] *)
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Children not yet reaped, for [kill_all] on the way out. *)
let live = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Wait up to [timeout_s] for [pid] to exit, then kill it. *)
let reap ?(timeout_s = 10.0) pid =
  live := List.filter (( <> ) pid) !live;
  let until = Clock.now_s () +. timeout_s in
  let rec wait () =
    if exited pid then ()
    else if Clock.now_s () > until then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

let connect t = Client.connect t.addr

(* Spawns the daemon with its socket and log under [dir] (relative to
   the working directory, so the socket path stays short) and returns
   once it accepts connections. *)
let spawn config ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let addr =
    match Addr.of_string ("unix:" ^ sock) with
    | Ok a -> a
    | Error msg -> failwith msg
  in
  let args =
    [ config.exe; "--listen"; "unix:" ^ sock;
      "--jobs"; string_of_int config.jobs;
      "--cache"; string_of_int config.cache;
      "--queue"; string_of_int config.queue ]
    @ match config.store_dir with Some d -> [ "--store"; d ] | None -> []
  in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process config.exe (Array.of_list args) Unix.stdin log log)
  in
  live := pid :: !live;
  let until = Clock.now_s () +. 30.0 in
  let rec attach () =
    match Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ ->
        if exited pid then failwith "tamoptd exited during start-up"
        else if Clock.now_s () > until then begin
          reap ~timeout_s:0.0 pid;
          failwith "tamoptd did not start listening"
        end
        else begin
          Unix.sleepf 0.002;
          attach ()
        end
  in
  { pid; addr; control = attach (); protocol_ops = 0 }

let stats t =
  t.protocol_ops <- t.protocol_ops + 1;
  match Client.rpc t.control (Json.Obj [ ("op", Json.Str "stats") ]) with
  | Ok reply -> (
      match Json.member "result" reply with
      | Some r -> r
      | None -> failwith "stats reply without result")
  | Error msg -> failwith ("stats: " ^ msg)

(* [VmHWM] from [/proc/<pid>/status], in MiB. *)
let peak_rss_mb t =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid)
    (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc status"
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let stop t =
  (try
     ignore
       (Client.rpc t.control (Json.Obj [ ("op", Json.Str "shutdown") ]))
   with _ -> ());
  Client.close t.control;
  reap t.pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap ~timeout_s:5.0 pid)
    !live

(* Path lookups into a stats reply: [int_at s ["cache"; "hits"]]. *)
let rec at json = function
  | [] -> Some json
  | k :: rest -> Option.bind (Json.member k json) (fun j -> at j rest)

let num_at json path =
  match at json path with Some (Json.Num f) -> f | _ -> 0.0

let int_at json path = int_of_float (num_at json path)
