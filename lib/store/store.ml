module Json = Soctam_obs.Json

module Crc32 = struct
  (* Reflected CRC-32 (IEEE 802.3), computed in a plain [int] with the
     low 32 bits significant. *)
  let poly = 0xEDB88320

  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let bytes b ~pos ~len =
    let table = Lazy.force table in
    let crc = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      let byte = Char.code (Bytes.unsafe_get b i) in
      crc := table.((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF

  let string s =
    bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
end

module Frame = struct
  let magic = "SOCT"
  let header_bytes = 12
  let max_payload = 64 * 1024 * 1024

  let set_u32le b pos v =
    Bytes.set_uint8 b pos (v land 0xFF);
    Bytes.set_uint8 b (pos + 1) ((v lsr 8) land 0xFF);
    Bytes.set_uint8 b (pos + 2) ((v lsr 16) land 0xFF);
    Bytes.set_uint8 b (pos + 3) ((v lsr 24) land 0xFF)

  let get_u32le b pos =
    Bytes.get_uint8 b pos
    lor (Bytes.get_uint8 b (pos + 1) lsl 8)
    lor (Bytes.get_uint8 b (pos + 2) lsl 16)
    lor (Bytes.get_uint8 b (pos + 3) lsl 24)

  let encode payload =
    let len = String.length payload in
    if len > max_payload then invalid_arg "Store.Frame.encode: payload too large";
    let b = Bytes.create (header_bytes + len) in
    Bytes.blit_string magic 0 b 0 4;
    set_u32le b 4 len;
    set_u32le b 8 (Crc32.string payload);
    Bytes.blit_string payload 0 b header_bytes len;
    Bytes.unsafe_to_string b

  type error = Torn | Corrupt of string

  let decode ?(verify = true) buf ~pos ~avail =
    if avail < header_bytes then Error Torn
    else if Bytes.sub_string buf pos 4 <> magic then Error (Corrupt "bad magic")
    else
      let len = get_u32le buf (pos + 4) in
      if len > max_payload then Error (Corrupt "insane length")
      else if avail < header_bytes + len then Error Torn
      else
        let payload = Bytes.sub_string buf (pos + header_bytes) len in
        let crc = get_u32le buf (pos + 8) in
        if verify && crc <> Crc32.string payload then
          Error (Corrupt "crc mismatch")
        else Ok (payload, header_bytes + len)
end

type faults = {
  skip_crc : bool;
  drop_writes : bool;
  compact_keeps_first : bool;
  append_past_torn : bool;
}

let no_faults =
  {
    skip_crc = false;
    drop_writes = false;
    compact_keeps_first = false;
    append_past_torn = false;
  }

type stats = {
  hits : int;
  misses : int;
  appends : int;
  recovered : int;
  corrupt_frames : int;
  torn_bytes : int;
  rescans : int;
  compactions : int;
  segments : int;
  live : int;
  bytes : int;
}

type location =
  | Disk of { seg : int; off : int; len : int }
  | Mem of string  (* drop_writes fault: payload acked from memory *)

type seg_scan = {
  mutable scanned_off : int;  (* where the next incremental scan resumes *)
  mutable size_seen : int;  (* segment size at the last scan *)
  mutable valid_off : int;
      (* end of the last frame this handle accepted; everything in
         [valid_off, size) is torn/corrupt garbage the moment a locked
         scan stops short of end-of-file *)
}

type t = {
  dir : string;
  segment_bytes : int;
  do_fsync : bool;
  faults : faults;
  mutex : Mutex.t;
  lock_fd : Unix.file_descr;
  index : (Digest.t, location) Hashtbl.t;
      (* keyed by [slot key]: canonical keys run to a text line per
         core, so the index holds their 16-byte digests instead; every
         read checks the payload's full key, so a digest collision can
         only cost a miss *)
  scans : (int, seg_scan) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable appends : int;
  mutable recovered : int;
  mutable corrupt_frames : int;
  mutable torn_bytes : int;
  mutable rescans : int;
  mutable compactions : int;
  mutable closed : bool;
}

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let seg_name id = Printf.sprintf "seg-%08d.log" id
let seg_path t id = Filename.concat t.dir (seg_name id)

let seg_id_of_name name =
  if
    String.length name = 16
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 8)
  else None

let list_segments t =
  let entries = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let ids =
    Array.to_list entries |> List.filter_map seg_id_of_name |> List.sort compare
  in
  ids

(* The writer lock: fcntl region lock on dir/lock, held across appends,
   compactions and opening scans. It excludes other PROCESSES sharing
   the directory only: POSIX record locks never conflict between file
   descriptors of one process, and [t.mutex] is per-handle, so two
   handles opened on the same directory within one process have no
   mutual exclusion at all. Hence the contract in the .mli: at most one
   handle that writes (add/compact) per directory per process;
   read-only handles are safe anywhere because readers never lock. *)
let with_file_lock t f =
  ignore (Unix.lseek t.lock_fd 0 Unix.SEEK_SET);
  Unix.lockf t.lock_fd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.lseek t.lock_fd 0 Unix.SEEK_SET);
      Unix.lockf t.lock_fd Unix.F_ULOCK 0)
    f

let slot key = Digest.string key

let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let buf = Bytes.create size in
      let rec fill off =
        if off < size then
          let n = Unix.read fd buf off (size - off) in
          if n = 0 then off else fill (off + n)
      else off
      in
      let got = fill 0 in
      if got = size then buf else Bytes.sub buf 0 got)

(* [len] bytes at [off], or [None] on a short read. *)
let read_range path ~off ~len =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let buf = Bytes.create len in
      let rec fill got =
        if got = len then Some buf
        else
          match Unix.read fd buf got (len - got) with
          | 0 -> None
          | n -> fill (got + n)
      in
      if Unix.lseek fd off Unix.SEEK_SET = off then fill 0 else None)

(* A payload's key and document, from one parse. *)
let record_of_payload payload =
  match Json.parse payload with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "key" fields with
      | Some (Json.Str k) -> Some (k, List.assoc_opt "doc" fields)
      | _ -> None)
  | _ -> None

let key_of_payload payload = Option.map fst (record_of_payload payload)

(* Scans [seg] from its last-scanned offset, indexing every valid
   frame. A corrupt frame is skipped by resynchronizing on the next
   magic marker, so records appended after a damaged region are still
   recovered. A torn frame — one whose claimed length runs past
   end-of-file — depends on who is scanning:

   - An unlocked reader ([resync_torn = false]) must stop there: the
     bytes may be another writer's append still landing, so
     [scanned_off] stays at the frame start and a later rescan resumes
     once the file grows.
   - A scan under the writer lock ([resync_torn = true]) knows no
     append is in flight, so the torn frame is a dead crashed-append
     tail that can never complete. If a magic marker follows inside
     the claimed region, frames were appended past the dead tail (a
     store written before tails were repaired on append) — resync on
     it so those acknowledged records are not lost. *)
let scan_segment ?(resync_torn = false) t seg =
  let resync_torn = resync_torn && not t.faults.append_past_torn in
  let path = seg_path t seg in
  match read_file path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      Hashtbl.remove t.scans seg
  | buf ->
      let size = Bytes.length buf in
      let state =
        match Hashtbl.find_opt t.scans seg with
        | Some s -> s
        | None ->
            let s = { scanned_off = 0; size_seen = 0; valid_off = 0 } in
            Hashtbl.replace t.scans seg s;
            s
      in
      if size <> state.size_seen then begin
        (* A segment shrinks only when a writer truncated trailing
           garbage, at an offset no scan ever accepted a frame beyond.
           If our resume cursor had drifted past that point (it was
           sitting inside the garbage), or the bytes under it are not a
           frame boundary any more (the writer truncated below it and
           appended fresh frames across it), the cursor is meaningless:
           rescan the segment from zero. A resume cursor on a healthy
           file always points at end-of-file, a frame start, or a torn
           frame start — never at bytes that fail the magic check. *)
        if
          size < state.scanned_off
          || (state.scanned_off > 0
             && state.scanned_off + 4 <= size
             && Bytes.sub_string buf state.scanned_off 4 <> Frame.magic)
        then begin
          state.scanned_off <- 0;
          state.valid_off <- 0
        end;
        let find_magic from =
          let rec go i =
            if i + 4 > size then None
            else if Bytes.sub_string buf i 4 = Frame.magic then Some i
            else go (i + 1)
          in
          go from
        in
        let rec go off =
          if off >= size then (size, 0)
          else
            match
              Frame.decode ~verify:(not t.faults.skip_crc) buf ~pos:off
                ~avail:(size - off)
            with
            | Ok (payload, total) ->
                (match key_of_payload payload with
                | Some key ->
                    Hashtbl.replace t.index (slot key)
                      (Disk { seg; off; len = total });
                    t.recovered <- t.recovered + 1
                | None -> t.corrupt_frames <- t.corrupt_frames + 1);
                state.valid_off <- off + total;
                go (off + total)
            | Error Torn ->
                if resync_torn then
                  match find_magic (off + 1) with
                  | Some next ->
                      t.corrupt_frames <- t.corrupt_frames + 1;
                      go next
                  | None -> (off, size - off)
                else (off, size - off)
            | Error (Corrupt _) -> (
                t.corrupt_frames <- t.corrupt_frames + 1;
                match find_magic (off + 1) with
                | Some next -> go next
                | None -> (size, 0))
        in
        let scanned_off, torn = go state.scanned_off in
        t.torn_bytes <- t.torn_bytes + torn;
        state.scanned_off <- scanned_off;
        state.size_seen <- size
      end

(* Incremental refresh: pick up new segments and bytes other writers
   appended since we last looked (or removed, by truncating a torn
   tail — which is why a size *change*, not only growth, triggers a
   rescan). *)
let refresh ?(resync_torn = false) t =
  let ids = list_segments t in
  List.iter
    (fun seg ->
      let needs_scan =
        match Hashtbl.find_opt t.scans seg with
        | None -> true
        | Some s -> (
            match (Unix.stat (seg_path t seg)).Unix.st_size with
            | size -> size <> s.size_seen
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false)
      in
      if needs_scan then scan_segment ~resync_torn t seg)
    ids

(* Full rebuild: drop everything and rescan from byte zero. Used when a
   read through the index fails (a compaction in another process moved
   the record out from under us). *)
let rebuild t =
  Hashtbl.reset t.index;
  Hashtbl.reset t.scans;
  t.rescans <- t.rescans + 1;
  refresh t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let open_store ?(segment_bytes = 8 * 1024 * 1024) ?(fsync = true)
    ?(faults = no_faults) dir =
  mkdir_p dir;
  let lock_fd =
    Unix.openfile (Filename.concat dir "lock")
      [ Unix.O_RDWR; Unix.O_CREAT ]
      0o644
  in
  let t =
    {
      dir;
      segment_bytes;
      do_fsync = fsync;
      faults;
      mutex = Mutex.create ();
      lock_fd;
      index = Hashtbl.create 256;
      scans = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      appends = 0;
      recovered = 0;
      corrupt_frames = 0;
      torn_bytes = 0;
      rescans = 0;
      compactions = 0;
      closed = false;
    }
  in
  with_file_lock t (fun () -> refresh ~resync_torn:true t);
  t

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Unix.close t.lock_fd
      end)

let dir t = t.dir

(* The payload at [loc], provided its bytes still form exactly the
   indexed frame (magic, length, CRC). Only the frame's own [len] bytes
   are read, so a hit costs one frame, not its segment. A short read or
   any mismatch is [None]: a stale entry. *)
let payload_at t = function
  | Mem payload -> Some payload
  | Disk { seg; off; len } -> (
      match read_range (seg_path t seg) ~off ~len with
      | exception Unix.Unix_error (_, _, _) -> None
      | None -> None
      | Some buf -> (
          match
            Frame.decode ~verify:(not t.faults.skip_crc) buf ~pos:0 ~avail:len
          with
          | Ok (payload, total) when total = len -> Some payload
          | _ -> None))

(* The document at [loc] if its payload carries exactly [key]: the
   index is keyed by digest, so this check is what keeps a collision a
   miss. *)
let read_frame t ~key loc =
  match Option.bind (payload_at t loc) record_of_payload with
  | Some (k, doc) when k = key -> doc
  | _ -> None

let find t key =
  locked t (fun () ->
      (* Set when an indexed location failed its read: the record was
         moved out from under us (a compaction in another process), as
         opposed to the key never having been stored. *)
      let stale = ref false in
      let h = slot key in
      let attempt () =
        match Hashtbl.find_opt t.index h with
        | None -> None
        | Some loc -> (
            match read_frame t ~key loc with
            | Some doc -> Some doc
            | None ->
                Hashtbl.remove t.index h;
                stale := true;
                None)
      in
      let hit doc =
        t.hits <- t.hits + 1;
        Some doc
      in
      let miss () =
        t.misses <- t.misses + 1;
        None
      in
      match attempt () with
      | Some doc -> hit doc
      | None -> (
          (* Either we have never seen this key or our index is stale
             (another process appended or compacted). A cheap stat-based
             refresh picks up new segments and appended bytes; only a
             stale entry that still fails afterwards justifies the full
             rebuild — a key simply absent from a fresh index is a
             genuine miss, and rebuilding on every such miss would
             re-read the whole store each time. *)
          refresh t;
          match attempt () with
          | Some doc -> hit doc
          | None ->
              if not !stale then miss ()
              else (
                rebuild t;
                match attempt () with Some doc -> hit doc | None -> miss ())))

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let payload_of ~key doc = Json.to_string (Json.Obj [ ("key", Json.Str key); ("doc", doc) ])

(* Picks the segment the next append goes to: the highest existing
   segment, rotated to a fresh one once it reaches [segment_bytes]. *)
let active_segment t =
  let ids = list_segments t in
  let seg = match List.rev ids with [] -> 1 | last :: _ -> last in
  let size =
    match (Unix.stat (seg_path t seg)).Unix.st_size with
    | size -> size
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  in
  if size >= t.segment_bytes then (seg + 1, 0) else (seg, size)

let append_frame t ~seg ~off frame =
  let fd =
    Unix.openfile (seg_path t seg)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd frame;
      if t.do_fsync then Unix.fsync fd);
  ignore off

(* Under the writer lock only: after a locked [refresh], everything in
   [valid_off, size) of the just-scanned segment is trailing garbage —
   torn frames crashed appends left behind (never acknowledged) and any
   corrupt bytes between them. Drop it before appending: a torn header's
   claimed length (up to [Frame.max_payload]) would otherwise swallow
   every smaller frame appended after it at recovery time, losing
   acknowledged records. *)
let truncate_torn_tail t seg =
  match Hashtbl.find_opt t.scans seg with
  | Some s when s.valid_off < s.size_seen && not t.faults.append_past_torn
    -> (
      match Unix.openfile (seg_path t seg) [ Unix.O_WRONLY ] 0 with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
      | fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.ftruncate fd s.valid_off;
              if t.do_fsync then Unix.fsync fd);
          s.size_seen <- s.valid_off;
          s.scanned_off <- s.valid_off)
  | _ -> ()

let add t key doc =
  locked t (fun () ->
      with_file_lock t (fun () ->
          (* Catch up on other writers first so updating this segment's
             scan cursor below cannot skip their frames. *)
          refresh ~resync_torn:true t;
          (match List.rev (list_segments t) with
          | [] -> ()
          | last :: _ -> truncate_torn_tail t last);
          let payload = payload_of ~key doc in
          if t.faults.drop_writes then
            Hashtbl.replace t.index (slot key) (Mem payload)
          else begin
            let seg, off = active_segment t in
            let frame = Frame.encode payload in
            append_frame t ~seg ~off frame;
            let len = String.length frame in
            Hashtbl.replace t.index (slot key) (Disk { seg; off; len });
            let state =
              match Hashtbl.find_opt t.scans seg with
              | Some s -> s
              | None ->
                  let s = { scanned_off = 0; size_seen = 0; valid_off = 0 } in
                  Hashtbl.replace t.scans seg s;
                  s
            in
            state.scanned_off <- off + len;
            state.size_seen <- off + len;
            state.valid_off <- off + len
          end;
          t.appends <- t.appends + 1))

let append_torn t ~key ~doc ~keep_bytes =
  locked t (fun () ->
      with_file_lock t (fun () ->
          refresh t;
          let payload = payload_of ~key doc in
          let frame = Frame.encode payload in
          let keep = max 0 (min keep_bytes (String.length frame)) in
          let seg, _off = active_segment t in
          append_frame t ~seg ~off:0 (String.sub frame 0 keep)))

(* Live payloads in deterministic (key-sorted) order, keys read back
   from the payloads since the index holds only digests. Under the
   [compact_keeps_first] fault the oldest record per key is kept
   instead of the newest — the stale-optimum bug the torture oracle
   must catch. *)
let live_payloads t =
  if t.faults.compact_keeps_first then begin
    let first = Hashtbl.create (Hashtbl.length t.index) in
    List.iter
      (fun seg ->
        match read_file (seg_path t seg) with
        | exception Unix.Unix_error (_, _, _) -> ()
        | buf ->
            let size = Bytes.length buf in
            let rec go off =
              if off < size then
                match
                  Frame.decode ~verify:(not t.faults.skip_crc) buf ~pos:off
                    ~avail:(size - off)
                with
                | Ok (payload, total) ->
                    (match key_of_payload payload with
                    | Some key ->
                        if not (Hashtbl.mem first key) then
                          Hashtbl.add first key payload
                    | None -> ());
                    go (off + total)
                | Error _ -> ()
            in
            go 0)
      (list_segments t);
    Hashtbl.fold (fun key payload acc -> (key, payload) :: acc) first []
    |> List.sort compare
  end
  else
    (* A stale entry can point at another key's frame of the same
       length; only a payload whose key digests to the entry's own slot
       is that entry's record. *)
    Hashtbl.fold
      (fun h loc acc ->
        match Option.bind (payload_at t loc) record_of_payload with
        | Some (key, Some doc) when slot key = h ->
            (key, payload_of ~key doc) :: acc
        | _ -> acc)
      t.index []
    |> List.sort compare

let compact t =
  locked t (fun () ->
      with_file_lock t (fun () ->
          refresh ~resync_torn:true t;
          let live = live_payloads t in
          let old = list_segments t in
          let new_id = (match List.rev old with [] -> 0 | i :: _ -> i) + 1 in
          let tmp = seg_path t new_id ^ ".tmp" in
          let fd =
            Unix.openfile tmp
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
              0o644
          in
          let offsets = ref [] in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let off = ref 0 in
              List.iter
                (fun (key, payload) ->
                  let frame = Frame.encode payload in
                  write_all fd frame;
                  offsets := (key, !off, String.length frame) :: !offsets;
                  off := !off + String.length frame)
                live;
              Unix.fsync fd);
          Unix.rename tmp (seg_path t new_id);
          (* Make the rename durable before unlinking the sources. *)
          (try
             let dfd = Unix.openfile t.dir [ Unix.O_RDONLY ] 0 in
             Fun.protect
               ~finally:(fun () -> Unix.close dfd)
               (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
           with Unix.Unix_error _ -> ());
          List.iter
            (fun seg ->
              try Unix.unlink (seg_path t seg)
              with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
            old;
          Hashtbl.reset t.index;
          Hashtbl.reset t.scans;
          List.iter
            (fun (key, off, len) ->
              Hashtbl.replace t.index (slot key)
                (Disk { seg = new_id; off; len }))
            !offsets;
          let size =
            match (Unix.stat (seg_path t new_id)).Unix.st_size with
            | size -> size
            | exception Unix.Unix_error _ -> 0
          in
          Hashtbl.replace t.scans new_id
            { scanned_off = size; size_seen = size; valid_off = size };
          t.compactions <- t.compactions + 1))

let stats t =
  locked t (fun () ->
      let segments = list_segments t in
      let bytes =
        List.fold_left
          (fun acc seg ->
            match (Unix.stat (seg_path t seg)).Unix.st_size with
            | size -> acc + size
            | exception Unix.Unix_error _ -> acc)
          0 segments
      in
      {
        hits = t.hits;
        misses = t.misses;
        appends = t.appends;
        recovered = t.recovered;
        corrupt_frames = t.corrupt_frames;
        torn_bytes = t.torn_bytes;
        rescans = t.rescans;
        compactions = t.compactions;
        segments = List.length segments;
        live = Hashtbl.length t.index;
        bytes;
      })

let locate t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.index (slot key) with
      | Some (Disk { seg; off; len } as loc) ->
          (* Validate against the bytes on disk before handing out the
             location: a truncate-and-append can reuse a stale entry's
             offset for a different key's frame, and damage targeted
             through a stale location would hit the wrong record. *)
          if read_frame t ~key loc <> None then
            Some (seg_path t seg, off, len)
          else None
      | Some (Mem _) | None -> None)

let segment_paths t =
  locked t (fun () -> List.map (seg_path t) (list_segments t))
