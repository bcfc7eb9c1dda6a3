module Json = Soctam_obs.Json

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_quietly path =
  try Unix.unlink path with Unix.Unix_error _ -> ()

let status_text = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let respond oc ~status ~content_type body =
  Printf.fprintf oc
    "HTTP/1.1 %d %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n"
    status (status_text status) content_type (String.length body);
  output_string oc body;
  flush oc

(* One exchange per connection: parse "METHOD /path ...", drain the
   headers, answer, close. Malformed requests get a 404 rather than a
   hang. *)
let handle_connection service fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let request_line = input_line ic in
     let target =
       match String.split_on_char ' ' (String.trim request_line) with
       | [ "GET"; target; _ ] | [ "GET"; target ] -> Some target
       | _ -> None
     in
     (* Drain headers so well-behaved clients see a complete exchange. *)
     (try
        while String.trim (input_line ic) <> "" do
          ()
        done
      with End_of_file -> ());
     match target with
     | Some "/metrics" ->
         respond oc ~status:200
           ~content_type:"text/plain; version=0.0.4; charset=utf-8"
           (Service.metrics_text service)
     | Some "/health" ->
         let body = Json.to_string (Service.health_json service) ^ "\n" in
         let status =
           if Service.shutdown_requested service then 503 else 200
         in
         respond oc ~status ~content_type:"application/json" body
     | Some _ | None ->
         respond oc ~status:404 ~content_type:"text/plain" "not found\n"
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  close_quietly fd

let serve ?(on_bound = fun () -> ()) ~service addr =
  let domain =
    match addr with
    | Addr.Unix_path _ -> Unix.PF_UNIX
    | Addr.Tcp _ -> Unix.PF_INET
  in
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      close_quietly listener;
      match addr with
      | Addr.Unix_path path -> unlink_quietly path
      | Addr.Tcp _ -> ())
    (fun () ->
      (match addr with
      | Addr.Unix_path path -> unlink_quietly path
      | Addr.Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true);
      Unix.bind listener (Addr.sockaddr addr);
      Unix.listen listener 16;
      on_bound ();
      while not (Service.shutdown_requested service) do
        match Unix.select [ listener ] [] [] 0.1 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
            match Unix.accept listener with
            | fd, _ ->
                (* Scrapes are cheap; a thread per scrape keeps the
                   accept loop responsive without a connection table. *)
                ignore
                  (Thread.create (fun () -> handle_connection service fd) ()
                    : Thread.t)
            | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)
