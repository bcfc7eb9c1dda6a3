module Json = Soctam_obs.Json
module Store = Soctam_store.Store

type fault =
  | No_fault
  | Skip_crc
  | Drop_writes
  | Stale_compact
  | Append_past_torn

let fault_names =
  [ "none";
    "store-skip-crc";
    "store-drop-writes";
    "store-stale-compact";
    "store-append-past-torn" ]

let fault_name = function
  | No_fault -> "none"
  | Skip_crc -> "store-skip-crc"
  | Drop_writes -> "store-drop-writes"
  | Stale_compact -> "store-stale-compact"
  | Append_past_torn -> "store-append-past-torn"

let fault_of_string = function
  | "none" -> Ok No_fault
  | "store-skip-crc" -> Ok Skip_crc
  | "store-drop-writes" -> Ok Drop_writes
  | "store-stale-compact" -> Ok Stale_compact
  | "store-append-past-torn" -> Ok Append_past_torn
  | s ->
      Error
        (Printf.sprintf "unknown store fault %S (expected one of: %s)" s
           (String.concat ", " fault_names))

let store_faults = function
  | No_fault -> Store.no_faults
  | Skip_crc -> { Store.no_faults with Store.skip_crc = true }
  | Drop_writes -> { Store.no_faults with Store.drop_writes = true }
  | Stale_compact -> { Store.no_faults with Store.compact_keeps_first = true }
  | Append_past_torn -> { Store.no_faults with Store.append_past_torn = true }

type op =
  | Append of { key : int; value : int }
  | Torn_append of { key : int; value : int; keep_bytes : int }
  | Flip_bit of { key : int; bit : int }
  | Truncate_tail of { bytes : int }
  | Reopen
  | Compact
  | Find of { key : int }
  | Concurrent_read_compact of { key : int }

type schedule = { seed : int; fault : fault; ops : op list }

(* ---- deterministic generation (own LCG: stable across OCaml
   versions, unlike [Random]) ---- *)

(* 48-bit LCG (the java.util.Random constants): fits OCaml's 63-bit
   [int] on every platform. *)
let lcg_next st =
  st := ((!st * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  !st lsr 17

let rand st n = if n <= 0 then 0 else lcg_next st mod n

let num_keys = 4

let schedule_of_seed ?(ops = 28) ~fault seed =
  let st = ref (seed lxor 0x5DEECE66D) in
  ignore (lcg_next st);
  let value = ref 0 in
  let body =
    List.init ops (fun _ ->
        let key = rand st num_keys in
        match rand st 100 with
        | r when r < 35 ->
            incr value;
            Append { key; value = !value }
        | r when r < 55 -> Find { key }
        | r when r < 63 ->
            incr value;
            (* Torn frames carry a ~2 KiB document, so any keep in
               [0, 50) is genuinely torn — and a keep past the 12-byte
               header leaves a fully-written length field claiming ~2 KiB
               the segment does not hold. *)
            Torn_append { key; value = !value; keep_bytes = rand st 50 }
        | r when r < 72 -> Flip_bit { key; bit = rand st 2048 }
        | r when r < 77 -> Truncate_tail { bytes = 1 + rand st 48 }
        | r when r < 86 -> Reopen
        | r when r < 93 -> Compact
        | _ -> Concurrent_read_compact { key })
  in
  (* Epilogue: cross the crash boundary once more and read every key,
     so durability violations surface even in read-light schedules. *)
  let epilogue = Reopen :: List.init num_keys (fun key -> Find { key }) in
  { seed; fault; ops = body @ epilogue }

(* ---- schedule execution against a model oracle ---- *)

type failure = { op_index : int; op : op; message : string }

let key_str k = Printf.sprintf "k%02d" k

(* A long CRC-protected filler gives {!Flip_bit} a region where a
   single-bit flip keeps the JSON parseable but changes the document —
   exactly the damage a [skip_crc] store serves and a healthy store
   must reject. *)
let doc_of_value v =
  Json.Obj
    [ ("fill", Json.Str (String.make 96 'x')); ("value", Json.int v) ]

(* Torn appends use a much larger document than ordinary appends. The
   partially-written header then claims far more bytes than any run of
   subsequent ~140-byte frames supplies, so a store that appends past
   the torn tail without repairing it keeps reporting the region as
   torn at recovery and silently drops every acknowledged frame behind
   it — the failure mode uniform payload sizes can never surface,
   because any later append flips the region to corrupt instead. *)
let torn_doc_of_value v =
  Json.Obj
    [ ("fill", Json.Str (String.make 2048 'x')); ("value", Json.int v) ]

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "soctam-torture-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  (try rm_rf d with _ -> ());
  Unix.mkdir d 0o755;
  d

let segment_bytes = 512 (* tiny: a handful of appends forces rotation *)

let doc_string = function
  | None -> "<none>"
  | Some d -> Json.to_string d

(* Flips one bit inside the filler region of the frame at
   [(path, off, len)]. Returns [false] when the region cannot be found
   (record only in memory, or damage already mangled the payload). *)
let flip_filler_bit ~path ~off ~len ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if off + len > size then false
      else begin
        let buf = Bytes.create len in
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        let rec fill got =
          if got < len then
            let n = Unix.read fd buf got (len - got) in
            if n = 0 then got else fill (got + n)
          else got
        in
        if fill 0 < len then false
        else
          let frame = Bytes.to_string buf in
          let marker = "\"fill\":\"" in
          match
            (* find the filler string inside the payload *)
            let rec search i =
              if i + String.length marker > len then None
              else if String.sub frame i (String.length marker) = marker
              then Some (i + String.length marker)
              else search (i + 1)
            in
            search 0
          with
          | None -> false
          | Some fill_start ->
              let fill_len =
                let rec span i n =
                  if i < len && frame.[i] = 'x' then span (i + 1) (n + 1)
                  else n
                in
                span fill_start 0
              in
              if fill_len = 0 then false
              else begin
                (* bits 0..2 keep the byte printable ASCII, so the
                   flipped JSON still parses *)
                let byte_off = fill_start + (bit / 3 mod fill_len) in
                let mask = 1 lsl (bit mod 3) in
                let b = Char.code frame.[byte_off] lxor mask in
                ignore (Unix.lseek fd (off + byte_off) Unix.SEEK_SET);
                ignore
                  (Unix.write fd (Bytes.make 1 (Char.chr b)) 0 1);
                true
              end
      end)

let run_schedule ?(fsync = false) ~fault ops =
  let faults = store_faults fault in
  let dir = fresh_dir () in
  let store = ref (Store.open_store ~segment_bytes ~fsync ~faults dir) in
  (* newest acknowledged doc per key, and every doc ever acknowledged:
     undamaged keys must serve the newest, damaged keys at worst roll
     back within the acknowledged history or go missing. *)
  let model : (int, Json.t) Hashtbl.t = Hashtbl.create 8 in
  let history : (int, Json.t list) Hashtbl.t = Hashtbl.create 8 in
  let damaged : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let acked key doc =
    Hashtbl.replace model key doc;
    Hashtbl.replace history key
      (doc :: Option.value ~default:[] (Hashtbl.find_opt history key))
  in
  let in_history key doc =
    List.exists
      (fun d -> d = doc)
      (Option.value ~default:[] (Hashtbl.find_opt history key))
  in
  let check_read ~strict key served =
    if strict && not (Hashtbl.mem damaged key) then
      match (Hashtbl.find_opt model key, served) with
      | None, None -> Ok ()
      | Some want, Some got when want = got -> Ok ()
      | want, got ->
          Error
            (Printf.sprintf
               "undamaged key %s served %s, newest acknowledged is %s"
               (key_str key) (doc_string got)
               (doc_string (Option.map Fun.id want)))
    else
      match served with
      | None -> Ok ()
      | Some got when in_history key got -> Ok ()
      | Some got ->
          Error
            (Printf.sprintf
               "key %s served %s, which was never acknowledged"
               (key_str key) (doc_string (Some got)))
  in
  let exec = function
    | Append { key; value } ->
        let doc = doc_of_value value in
        Store.add !store (key_str key) doc;
        acked key doc;
        Ok ()
    | Torn_append { key; value; keep_bytes } ->
        (* killed mid-write: bytes may land, the ack never happens *)
        Store.append_torn !store ~key:(key_str key)
          ~doc:(torn_doc_of_value value) ~keep_bytes;
        Ok ()
    | Flip_bit { key; bit } ->
        (match Store.locate !store (key_str key) with
        | None -> ()
        | Some (path, off, len) ->
            if flip_filler_bit ~path ~off ~len ~bit then
              Hashtbl.replace damaged key ());
        Ok ()
    | Truncate_tail { bytes } -> (
        match List.rev (Store.segment_paths !store) with
        | [] -> Ok ()
        | last :: _ ->
            let size = (Unix.stat last).Unix.st_size in
            let new_size = max 0 (size - bytes) in
            Hashtbl.iter
              (fun key _ ->
                match Store.locate !store (key_str key) with
                | Some (path, off, len)
                  when path = last && off + len > new_size ->
                    Hashtbl.replace damaged key ()
                | _ -> ())
              model;
            Unix.truncate last new_size;
            Ok ())
    | Reopen ->
        Store.close !store;
        store := Store.open_store ~segment_bytes ~fsync ~faults dir;
        Ok ()
    | Compact ->
        Store.compact !store;
        Ok ()
    | Find { key } ->
        check_read ~strict:true key (Store.find !store (key_str key))
    | Concurrent_read_compact { key } ->
        let reader = Store.open_store ~segment_bytes ~fsync ~faults dir in
        let served = ref None in
        let th =
          Thread.create
            (fun () -> served := Some (Store.find reader (key_str key)))
            ()
        in
        Store.compact !store;
        Thread.join th;
        Store.close reader;
        (* The reader raced the compaction: it may serve an older
           acknowledged value, never an unacknowledged one. *)
        check_read ~strict:false key
          (Option.join !served)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Store.close !store with _ -> ());
      try rm_rf dir with _ -> ())
    (fun () ->
      let rec go i = function
        | [] -> Ok ()
        | op :: rest -> (
            match exec op with
            | Ok () -> go (i + 1) rest
            | Error message -> Error { op_index = i; op; message }
            | exception e ->
                Error
                  { op_index = i;
                    op;
                    message = "exception: " ^ Printexc.to_string e })
      in
      go 0 ops)

(* ---- shrinking: greedy op deletion to a fixpoint ---- *)

let shrink_schedule sched =
  let fails ops = Result.is_error (run_schedule ~fault:sched.fault ops) in
  let rec pass ops =
    let arr = Array.of_list ops in
    let n = Array.length arr in
    let removed = ref false in
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        keep.(i) <- false;
        let candidate =
          List.filteri (fun j _ -> keep.(j)) (Array.to_list arr)
        in
        if fails candidate then removed := true else keep.(i) <- true
      end
    done;
    let ops' = List.filteri (fun j _ -> keep.(j)) (Array.to_list arr) in
    if !removed then pass ops' else ops'
  in
  if fails sched.ops then { sched with ops = pass sched.ops } else sched

(* ---- textual corpus (.fault files) ---- *)

let op_to_string = function
  | Append { key; value } -> Printf.sprintf "op append %d %d" key value
  | Torn_append { key; value; keep_bytes } ->
      Printf.sprintf "op torn-append %d %d %d" key value keep_bytes
  | Flip_bit { key; bit } -> Printf.sprintf "op flip-bit %d %d" key bit
  | Truncate_tail { bytes } -> Printf.sprintf "op truncate-tail %d" bytes
  | Reopen -> "op reopen"
  | Compact -> "op compact"
  | Find { key } -> Printf.sprintf "op find %d" key
  | Concurrent_read_compact { key } ->
      Printf.sprintf "op concurrent-read-compact %d" key

let body_of_schedule s =
  let b = Buffer.create 512 in
  Buffer.add_string b "store-torture v1\n";
  Buffer.add_string b (Printf.sprintf "seed %d\n" s.seed);
  Buffer.add_string b (Printf.sprintf "fault %s\n" (fault_name s.fault));
  List.iter
    (fun op ->
      Buffer.add_string b (op_to_string op);
      Buffer.add_char b '\n')
    s.ops;
  Buffer.contents b

let schedule_to_string ?note s =
  let header =
    match note with
    | None -> ""
    | Some note ->
        String.concat ""
          (List.map
             (fun line -> "# " ^ line ^ "\n")
             (String.split_on_char '\n' note))
  in
  header ^ body_of_schedule s

let schedule_of_string text =
  let ( let* ) = Result.bind in
  let fail line fmt =
    Printf.ksprintf
      (fun msg -> Error (Printf.sprintf "line %d: %s" line msg))
      fmt
  in
  let int_word line w =
    match int_of_string_opt w with
    | Some n -> Ok n
    | None -> fail line "%S is not an integer" w
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno ~seen_magic ~seed ~fault ops = function
    | [] ->
        if not seen_magic then Error "missing \"store-torture v1\" header"
        else
          Ok
            { seed = Option.value ~default:0 seed;
              fault = Option.value ~default:No_fault fault;
              ops = List.rev ops }
    | line :: rest -> (
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] | "#" :: _ ->
            go (lineno + 1) ~seen_magic ~seed ~fault ops rest
        | [ "store-torture"; "v1" ] ->
            go (lineno + 1) ~seen_magic:true ~seed ~fault ops rest
        | [ "seed"; s ] ->
            let* s = int_word lineno s in
            go (lineno + 1) ~seen_magic ~seed:(Some s) ~fault ops rest
        | [ "fault"; f ] ->
            let* f = fault_of_string f in
            go (lineno + 1) ~seen_magic ~seed ~fault:(Some f) ops rest
        | "op" :: op_words ->
            let* op =
              match op_words with
              | [ "append"; k; v ] ->
                  let* key = int_word lineno k in
                  let* value = int_word lineno v in
                  Ok (Append { key; value })
              | [ "torn-append"; k; v; kb ] ->
                  let* key = int_word lineno k in
                  let* value = int_word lineno v in
                  let* keep_bytes = int_word lineno kb in
                  Ok (Torn_append { key; value; keep_bytes })
              | [ "flip-bit"; k; b ] ->
                  let* key = int_word lineno k in
                  let* bit = int_word lineno b in
                  Ok (Flip_bit { key; bit })
              | [ "truncate-tail"; b ] ->
                  let* bytes = int_word lineno b in
                  Ok (Truncate_tail { bytes })
              | [ "reopen" ] -> Ok Reopen
              | [ "compact" ] -> Ok Compact
              | [ "find"; k ] ->
                  let* key = int_word lineno k in
                  Ok (Find { key })
              | [ "concurrent-read-compact"; k ] ->
                  let* key = int_word lineno k in
                  Ok (Concurrent_read_compact { key })
              | w :: _ -> fail lineno "unknown op %S" w
              | [] -> fail lineno "empty op"
            in
            go (lineno + 1) ~seen_magic ~seed ~fault (op :: ops) rest
        | w :: _ -> fail lineno "unknown directive %S" w)
  in
  go 1 ~seen_magic:false ~seed:None ~fault:None [] lines

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir ?note s =
  mkdir_p dir;
  let body = body_of_schedule s in
  let digest =
    String.sub (Digest.to_hex (Digest.string body)) 0 8
  in
  let property =
    match s.fault with No_fault -> "store-clean" | f -> fault_name f
  in
  let path =
    Filename.concat dir (Printf.sprintf "%s-%s.fault" property digest)
  in
  let oc = open_out path in
  output_string oc (schedule_to_string ?note s);
  close_out oc;
  path

let load_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  schedule_of_string text

(* ---- the driver ---- *)

type report = {
  iteration : int;
  case_seed : int;
  schedule : schedule;
  failure : failure;
  shrunk : schedule option;
  corpus_path : string option;
}

type outcome = { executed : int; failure : report option }

let run ?(log = fun _ -> ()) ?(fault = No_fault) ?(shrink = false)
    ?corpus_dir ~seed ~budget () =
  let rec go i =
    if i >= budget then { executed = budget; failure = None }
    else begin
      let case_seed = seed + i in
      let schedule = schedule_of_seed ~fault case_seed in
      if i mod 50 = 0 then
        log (Printf.sprintf "store torture %d/%d (seed %d)" i budget
               case_seed);
      match run_schedule ~fault schedule.ops with
      | Ok () -> go (i + 1)
      | Error failure ->
          log
            (Printf.sprintf "seed %d failed at op %d (%s): %s" case_seed
               failure.op_index
               (op_to_string failure.op)
               failure.message);
          let shrunk =
            if shrink then begin
              let s = shrink_schedule schedule in
              log
                (Printf.sprintf "shrunk %d ops -> %d ops"
                   (List.length schedule.ops)
                   (List.length s.ops));
              Some s
            end
            else None
          in
          let corpus_path =
            Option.map
              (fun dir ->
                let to_save =
                  Option.value ~default:schedule shrunk
                in
                let note =
                  Printf.sprintf
                    "store torture failure: seed %d, op %d\n%s" case_seed
                    failure.op_index failure.message
                in
                let path = save ~dir ~note to_save in
                log ("saved corpus entry " ^ path);
                path)
              corpus_dir
          in
          { executed = i + 1;
            failure =
              Some
                { iteration = i;
                  case_seed;
                  schedule;
                  failure;
                  shrunk;
                  corpus_path } }
    end
  in
  go 0

let replay ?(use_fault = false) s =
  let fault = if use_fault then s.fault else No_fault in
  run_schedule ~fault s.ops
