type conn = { id : int; fd : Unix.file_descr; thread : Thread.t }

type state = {
  service : Service.t;
  mutex : Mutex.t;
  mutable conns : conn list;
  mutable next_id : int;
}

let unlink_quietly path =
  try Unix.unlink path with Unix.Unix_error _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let handle_connection state fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     while true do
       let line = input_line ic in
       (* Tolerate blank lines between NDJSON records. *)
       if String.trim line <> "" then begin
         (* Streamed incumbent events are written from a pool worker
            while this thread is parked inside [handle_line]; the
            strict one-request-per-line pairing keeps the two writers
            from interleaving. *)
         let emit event_line =
           output_string oc event_line;
           output_char oc '\n';
           flush oc
         in
         output_string oc (Service.handle_line ~emit state.service line);
         output_char oc '\n';
         flush oc
       end
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ())

let spawn state fd =
  Mutex.lock state.mutex;
  let id = state.next_id in
  state.next_id <- id + 1;
  let thread =
    Thread.create
      (fun () ->
        handle_connection state fd;
        Mutex.lock state.mutex;
        state.conns <- List.filter (fun c -> c.id <> id) state.conns;
        Mutex.unlock state.mutex;
        close_quietly fd)
      ()
  in
  state.conns <- { id; fd; thread } :: state.conns;
  Mutex.unlock state.mutex

let serve ?(on_bound = fun () -> ()) ~service addr =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let domain =
    match addr with
    | Addr.Unix_path _ -> Unix.PF_UNIX
    | Addr.Tcp _ -> Unix.PF_INET
  in
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  let state =
    { service; mutex = Mutex.create (); conns = []; next_id = 0 }
  in
  Fun.protect
    ~finally:(fun () ->
      close_quietly listener;
      match addr with
      | Addr.Unix_path path -> unlink_quietly path
      | Addr.Tcp _ -> ())
    (fun () ->
      (match addr with
      | Addr.Unix_path path ->
          (* Bind and listen under a temporary name in the same
             directory, then rename the socket into place: a client
             that connects as soon as [path] exists finds it
             listening. *)
          let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
          unlink_quietly tmp;
          Fun.protect
            ~finally:(fun () -> unlink_quietly tmp)
            (fun () ->
              Unix.bind listener (Unix.ADDR_UNIX tmp);
              Unix.listen listener 64;
              Unix.rename tmp path)
      | Addr.Tcp _ ->
          Unix.setsockopt listener Unix.SO_REUSEADDR true;
          Unix.bind listener (Addr.sockaddr addr);
          Unix.listen listener 64);
      on_bound ();
      (* Poll the shutdown flag between accepts so a shutdown request
         served on a connection thread wakes this loop promptly. *)
      while not (Service.shutdown_requested service) do
        match Unix.select [ listener ] [] [] 0.1 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
            match Unix.accept listener with
            | fd, _ -> spawn state fd
            | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      (* Admitted work finishes (new work is refused with
         "shutting_down"), then lingering idle connections are hung up
         so their threads observe EOF and exit. *)
      Service.drain service;
      Mutex.lock state.mutex;
      let conns = state.conns in
      Mutex.unlock state.mutex;
      List.iter
        (fun c ->
          try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun c -> Thread.join c.thread) conns)
