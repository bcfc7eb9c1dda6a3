(* The persistent result store: CRC framing goldens, recovery from
   every possible truncation point, compaction equivalence, cross-
   process sharing, the service's LRU -> store -> solve tiering with
   byte-identical store hits, and the torture harness (clean batch
   plus proof that each injected fault is caught). *)

module Json = Soctam_obs.Json
module Store = Soctam_store.Store
module Crc32 = Soctam_store.Store.Crc32
module Frame = Soctam_store.Store.Frame
module Torture = Soctam_check.Store_torture
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Service = Soctam_service.Service
module Benchmarks = Soctam_soc.Benchmarks
module Soc = Soctam_soc.Soc

(* ---- throwaway directories ---- *)

let tmp_counter = ref 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "soctam-test-store-%d-%d" (Unix.getpid ())
         !tmp_counter)
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- CRC-32 ---- *)

let test_crc32_known_answers () =
  Alcotest.(check int)
    "check value" 0xCBF43926
    (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int)
    "bytes slice" 0xCBF43926
    (Crc32.bytes b ~pos:2 ~len:9);
  (* Any single-bit flip must change the checksum. *)
  let base = Crc32.string "soctam" in
  let flipped = Bytes.of_string "soctam" in
  Bytes.set flipped 3 (Char.chr (Char.code (Bytes.get flipped 3) lxor 1));
  Alcotest.(check bool)
    "bit flip detected" true
    (base <> Crc32.bytes flipped ~pos:0 ~len:(Bytes.length flipped))

(* ---- frame golden ---- *)

let test_frame_round_trip () =
  let payload = {|{"key":"k","doc":7}|} in
  let frame = Frame.encode payload in
  Alcotest.(check string)
    "magic prefix" Frame.magic
    (String.sub frame 0 (String.length Frame.magic));
  Alcotest.(check int)
    "frame size" (Frame.header_bytes + String.length payload)
    (String.length frame);
  let buf = Bytes.of_string ("junk" ^ frame) in
  (match Frame.decode buf ~pos:4 ~avail:(String.length frame) with
  | Ok (p, n) ->
      Alcotest.(check string) "payload" payload p;
      Alcotest.(check int) "consumed" (String.length frame) n
  | Error _ -> Alcotest.fail "golden frame failed to decode");
  (* Every strictly shorter prefix is Torn, never Corrupt and never a
     bogus success. *)
  let whole = Bytes.of_string frame in
  for avail = 0 to String.length frame - 1 do
    match Frame.decode whole ~pos:0 ~avail with
    | Error Frame.Torn -> ()
    | Error (Frame.Corrupt _) ->
        Alcotest.failf "prefix %d reported Corrupt, want Torn" avail
    | Ok _ -> Alcotest.failf "prefix %d decoded" avail
  done

let test_frame_rejects_damage () =
  let frame = Frame.encode "payload-bytes" in
  let avail = String.length frame in
  let corrupt_at i =
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Frame.decode b ~pos:0 ~avail
  in
  (match corrupt_at 0 with
  | Error (Frame.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* A flipped payload byte fails the CRC... *)
  (match corrupt_at (Frame.header_bytes + 2) with
  | Error (Frame.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad CRC accepted");
  (* ...unless verification is skipped (the injected fault). *)
  (let b = Bytes.of_string frame in
   Bytes.set b
     (Frame.header_bytes + 2)
     (Char.chr
        (Char.code (Bytes.get b (Frame.header_bytes + 2)) lxor 0x40));
   match Frame.decode ~verify:false b ~pos:0 ~avail with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "verify:false still checked the CRC");
  (* An insane length field is Corrupt (damage), not Torn. *)
  let b = Bytes.of_string frame in
  Bytes.set b 4 '\xff';
  Bytes.set b 5 '\xff';
  Bytes.set b 6 '\xff';
  Bytes.set b 7 '\x7f';
  match Frame.decode b ~pos:0 ~avail with
  | Error (Frame.Corrupt _) -> ()
  | Error Frame.Torn -> Alcotest.fail "insane length reported Torn"
  | Ok _ -> Alcotest.fail "insane length accepted"

(* ---- recovery at every truncation point ---- *)

(* Writes a known record sequence, then replays every prefix of the
   segment file into a fresh directory and checks the recovered index
   against a model of the complete frames inside that prefix: the
   newest complete record per key is served, later (cut) records roll
   back to the previous acknowledged value, and nothing is ever
   invented. *)
let test_truncation_sweep () =
  let records =
    [ ("a", 1); ("b", 2); ("c", 3); ("a", 4); ("b", 5); ("a", 6) ]
  in
  let bytes_of_store =
    with_tmp_dir @@ fun dir ->
    let st = Store.open_store ~fsync:false dir in
    List.iter
      (fun (k, v) -> Store.add st k (Json.Obj [ ("v", Json.int v) ]))
      records;
    let seg =
      match Store.segment_paths st with
      | [ seg ] -> seg
      | segs -> Alcotest.failf "expected 1 segment, got %d"
                  (List.length segs)
    in
    let ic = open_in_bin seg in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Store.close st;
    s
  in
  (* Frame boundaries: the byte offset at which each record's frame
     ends, in write order. *)
  let boundaries =
    let buf = Bytes.of_string bytes_of_store in
    let rec go pos acc =
      if pos >= Bytes.length buf then List.rev acc
      else
        match
          Frame.decode buf ~pos ~avail:(Bytes.length buf - pos)
        with
        | Ok (_, n) -> go (pos + n) ((pos + n) :: acc)
        | Error _ -> Alcotest.fail "full segment has a bad frame"
    in
    go 0 []
  in
  Alcotest.(check int)
    "frame count" (List.length records)
    (List.length boundaries);
  let size = String.length bytes_of_store in
  for prefix = 0 to size do
    (* Model: records whose frame lies entirely inside the prefix. *)
    let expected = Hashtbl.create 8 in
    List.iteri
      (fun i fin ->
        if fin <= prefix then
          let k, v = List.nth records i in
          Hashtbl.replace expected k v)
      boundaries;
    with_tmp_dir @@ fun dir ->
    let oc =
      open_out_bin (Filename.concat dir "seg-00000001.log")
    in
    output_string oc (String.sub bytes_of_store 0 prefix);
    close_out oc;
    let st = Store.open_store ~fsync:false dir in
    List.iter
      (fun key ->
        let got =
          match Store.find st key with
          | Some (Json.Obj [ ("v", Json.Num v) ]) ->
              Some (int_of_float v)
          | Some _ -> Alcotest.failf "prefix %d: garbage doc" prefix
          | None -> None
        in
        let want = Hashtbl.find_opt expected key in
        if got <> want then
          Alcotest.failf
            "prefix %d key %s: got %s, want %s" prefix key
            (match got with Some v -> string_of_int v | None -> "miss")
            (match want with
            | Some v -> string_of_int v
            | None -> "miss"))
      [ "a"; "b"; "c" ];
    Store.close st
  done

(* ---- acknowledged appends behind a torn tail survive reopen ---- *)

(* A crashed append can leave a fully-written header whose claimed
   length exceeds everything appended afterwards (a large row array
   torn early, then small records). Acknowledged frames behind that
   region must survive reopen: the writer truncates the dead tail
   under the lock before its next append, and lock-held recovery scans
   resynchronize past a mid-file torn frame as a second line of
   defence. *)
let test_append_after_torn_tail_recovers () =
  let big = Json.Obj [ ("fill", Json.Str (String.make 4096 'x')) ] in
  let doc v = Json.Obj [ ("v", Json.int v) ] in
  let got st key =
    match Store.find st key with
    | Some (Json.Obj [ ("v", Json.Num v) ]) -> Some (int_of_float v)
    | Some _ -> Alcotest.failf "key %s served a garbage doc" key
    | None -> None
  in
  (with_tmp_dir @@ fun dir ->
   let st = Store.open_store ~fsync:false dir in
   Store.add st "a" (doc 1);
   (* Killed mid-append: the header claiming ~4 KiB lands, the payload
      does not. Both later appends fit inside that claim. *)
   Store.append_torn st ~key:"t" ~doc:big ~keep_bytes:20;
   Store.add st "b" (doc 2);
   Store.add st "a" (doc 3);
   Store.close st;
   let st = Store.open_store ~fsync:false dir in
   Alcotest.(check (option int)) "a recovered" (Some 3) (got st "a");
   Alcotest.(check (option int)) "b recovered" (Some 2) (got st "b");
   Alcotest.(check (option int)) "torn record not served" None (got st "t");
   Store.close st);
  (* The injected fault reintroduces the bug — the same sequence loses
     the acknowledged append across the crash boundary — proving the
     torture oracle has a real defect to catch. *)
  with_tmp_dir @@ fun dir ->
  let faults = { Store.no_faults with Store.append_past_torn = true } in
  let st = Store.open_store ~fsync:false ~faults dir in
  Store.add st "a" (doc 1);
  Store.append_torn st ~key:"t" ~doc:big ~keep_bytes:20;
  Store.add st "b" (doc 2);
  Store.close st;
  let st = Store.open_store ~fsync:false ~faults dir in
  Alcotest.(check (option int))
    "faulty store loses the acked append" None (got st "b");
  Store.close st

(* ---- genuine misses are cheap ---- *)

(* Under the service tiering every first-time instance is an LRU miss
   followed by a store miss, so a find() on a genuinely absent key must
   not escalate to a full index rebuild (an O(store bytes) re-read under
   the store mutex). Only a stale index entry that fails its read — the
   compaction-moved case — justifies the rebuild. *)
let test_miss_does_not_rebuild () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_store ~fsync:false dir in
  for i = 1 to 8 do
    Store.add st (Printf.sprintf "k%d" i) (Json.Obj [ ("v", Json.int i) ])
  done;
  for i = 1 to 50 do
    Alcotest.(check bool)
      "absent key misses" true
      (Store.find st (Printf.sprintf "absent%d" i) = None)
  done;
  let s = Store.stats st in
  Alcotest.(check int) "misses counted" 50 s.Store.misses;
  Alcotest.(check int) "no rebuilds on genuine misses" 0 s.Store.rescans;
  Store.close st

(* ---- a hit reads only its own frame ---- *)

let int_doc v = Json.Obj [ ("v", Json.int v) ]

let served_int st key =
  match Store.find st key with
  | Some (Json.Obj [ ("v", Json.Num v) ]) -> Some (int_of_float v)
  | Some _ -> Alcotest.failf "key %s served a garbage doc" key
  | None -> None

let located st key =
  match Store.locate st key with
  | Some loc -> loc
  | None -> Alcotest.failf "key %s not located" key

(* Flips one payload byte of the frame at [off], so its CRC fails. *)
let flip_payload_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let pos = off + Frame.header_bytes + 2 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let overwrite path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* A hit checks the indexed frame's own bytes and nothing else, so
   damage before and after it in the same segment never costs the hit
   — neither through the live index nor after a recovery scan. *)
let test_hit_beside_corrupt_frames () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_store ~fsync:false dir in
  List.iteri (fun i k -> Store.add st k (int_doc i)) [ "a"; "b"; "c" ];
  List.iter
    (fun k ->
      let path, off, _ = located st k in
      flip_payload_byte path off)
    [ "a"; "c" ];
  Alcotest.(check (option int)) "b served" (Some 1) (served_int st "b");
  Alcotest.(check int) "served from the index" 0 (Store.stats st).Store.rescans;
  Store.close st;
  let st = Store.open_store ~fsync:false dir in
  Alcotest.(check (option int)) "b served after reopen" (Some 1)
    (served_int st "b");
  Alcotest.(check (option int)) "damaged a not served" None (served_int st "a");
  Alcotest.(check (option int)) "damaged c not served" None (served_int st "c");
  Store.close st

(* An index entry is trusted only when the bytes at its offset form
   exactly the indexed frame, for exactly its key. Rewritten under a
   live handle, another key's frame of the same length is a miss for
   the stale key, and a frame of a different length is refused even
   under the right key: the store rescans and serves what is really on
   disk. *)
let test_stale_entry_is_a_miss () =
  let frame key doc =
    Frame.encode (Json.to_string (Json.Obj [ ("key", Json.Str key); ("doc", doc) ]))
  in
  (with_tmp_dir @@ fun dir ->
   let st = Store.open_store ~fsync:false dir in
   Store.add st "k1" (int_doc 1);
   let path, off, len = located st "k1" in
   let other = frame "k2" (int_doc 2) in
   Alcotest.(check (pair int int)) "same offset and length" (0, len)
     (off, String.length other);
   overwrite path other;
   Alcotest.(check (option int)) "stale key misses" None (served_int st "k1");
   Alcotest.(check (option int)) "other key served" (Some 2)
     (served_int st "k2");
   Store.close st);
  List.iter
    (fun (before, after) ->
      with_tmp_dir @@ fun dir ->
      let st = Store.open_store ~fsync:false dir in
      Store.add st "k1" (int_doc before);
      let path, _, len = located st "k1" in
      let replacement = frame "k1" (int_doc after) in
      Alcotest.(check bool) "frame length differs" true
        (String.length replacement <> len);
      (* Pad a shorter frame so the indexed range still reads in full. *)
      overwrite path
        (replacement ^ String.make (max 0 (len - String.length replacement)) ' ');
      Alcotest.(check bool)
        (Printf.sprintf "%d -> %d: length mismatch refused" before after)
        true
        (Store.locate st "k1" = None);
      Alcotest.(check (option int))
        (Printf.sprintf "%d -> %d: rescan serves the bytes on disk" before
           after)
        (Some after) (served_int st "k1");
      Store.close st)
    [ (1, 100); (100, 1) ]

(* A torn frame truncated away by the next append leaves its key's
   index entry pointing at the new frame, which here has the same
   length. Compaction reads keys back from payloads, so it must keep a
   payload only under its own entry: the stale one must not resurrect
   k1's older value. *)
let test_compaction_skips_stale_entry () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_store ~fsync:false dir in
  Store.add st "k3" (int_doc 11);
  let path, _, len = located st "k3" in
  Unix.truncate path (len - 4);
  Store.add st "k1" (int_doc 12);
  Store.add st "k1" (int_doc 14);
  Store.compact st;
  Alcotest.(check (option int)) "newest k1 survives" (Some 14)
    (served_int st "k1");
  Alcotest.(check (option int)) "torn k3 not served" None (served_int st "k3");
  Store.close st

(* ---- compaction equivalence ---- *)

let test_compaction_equivalence () =
  with_tmp_dir @@ fun dir ->
  let st = Store.open_store ~segment_bytes:256 ~fsync:false dir in
  let keys = [ "p"; "q"; "r"; "s" ] in
  for round = 1 to 6 do
    List.iter
      (fun k ->
        Store.add st k
          (Json.Obj [ ("k", Json.Str k); ("round", Json.int round) ]))
      keys
  done;
  let snapshot st =
    List.map (fun k -> (k, Option.map Json.to_string (Store.find st k)))
      keys
  in
  let before = snapshot st in
  Alcotest.(check bool)
    "rotation happened" true
    ((Store.stats st).Store.segments > 1);
  Store.compact st;
  Alcotest.(check int) "one segment" 1 (Store.stats st).Store.segments;
  Alcotest.(check int) "live keys" 4 (Store.stats st).Store.live;
  Alcotest.(check bool) "same answers" true (before = snapshot st);
  Store.close st;
  (* A cold open of the compacted directory agrees too. *)
  let st2 = Store.open_store ~fsync:false dir in
  Alcotest.(check bool) "cold reopen agrees" true (before = snapshot st2);
  Store.close st2

(* ---- two processes sharing one directory ---- *)

(* [Unix.fork] is unavailable once domains exist (the pool tests run
   first), so the second process is this very test binary re-executed
   in a child mode that appends and exits before Alcotest starts. *)
let child_env_var = "SOCTAM_STORE_CHILD_DIR"

let () =
  match Sys.getenv_opt child_env_var with
  | None -> ()
  | Some dir ->
      let code =
        try
          let child = Store.open_store ~fsync:false dir in
          for i = 1 to 5 do
            Store.add child (Printf.sprintf "child-%d" i) (Json.int i)
          done;
          (* The child must also see the parent's pre-spawn record. *)
          if Store.find child "parent" = Some (Json.Num 1.0) then 0
          else 2
        with _ -> 3
      in
      exit code

let test_two_process_sharing () =
  with_tmp_dir @@ fun dir ->
  let parent = Store.open_store ~fsync:false dir in
  Store.add parent "parent" (Json.int 1);
  (* A genuinely separate process appends under the fcntl lock; the
     parent's handle must pick its records up via refresh. *)
  let env =
    Array.append (Unix.environment ())
      [| child_env_var ^ "=" ^ dir |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "child exited %d" c
  | _ -> Alcotest.fail "child died");
  for i = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "child-%d visible in parent" i)
      true
      (Store.find parent (Printf.sprintf "child-%d" i)
      = Some (Json.Num (float_of_int i)))
  done;
  Store.close parent

(* ---- service tiering: LRU -> store -> solve ---- *)

let reply_of_line svc line =
  match Json.parse (Service.handle_line svc line) with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "reply is not JSON: %s" msg

let reply_field_bool field reply =
  match Json.member field reply with
  | Some (Json.Bool b) -> b
  | _ -> false

let reply_source reply =
  match Json.member "source" reply with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail "reply has no source"

let result_string reply =
  match Json.member "result" reply with
  | Some r -> Json.to_string r
  | None -> Alcotest.fail "reply has no result"

let solve_line =
  {|{"id":1,"op":"solve","soc":"s1","num_buses":2,"total_width":16}|}

let solve_line_b =
  {|{"id":2,"op":"solve","soc":"s1","num_buses":2,"total_width":24}|}

let with_store_service ?(cache_capacity = 16) dir f =
  let store = Store.open_store ~fsync:false dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      Pool.with_pool ~num_domains:2 (fun pool ->
          f
            (Service.create ~cache_capacity ~queue_capacity:4 ~store
               ~pool ())))

let test_service_store_tier () =
  with_tmp_dir @@ fun dir ->
  let fresh =
    with_store_service dir @@ fun svc ->
    let reply = reply_of_line svc solve_line in
    Alcotest.(check bool) "fresh ok" true (reply_field_bool "ok" reply);
    Alcotest.(check bool)
      "fresh not cached" false
      (reply_field_bool "cached" reply);
    Alcotest.(check string) "fresh source" "solve" (reply_source reply);
    (* Within the same service the second request is an LRU hit. *)
    let again = reply_of_line svc solve_line in
    Alcotest.(check string) "second source" "lru" (reply_source again);
    Alcotest.(check string)
      "lru hit byte-identical" (result_string reply)
      (result_string again);
    reply
  in
  (* A brand-new service on the same directory — empty LRU, records
     only on disk — serves the store hit byte-identically. *)
  with_store_service dir @@ fun svc ->
  let replay = reply_of_line svc solve_line in
  Alcotest.(check bool)
    "store hit cached" true
    (reply_field_bool "cached" replay);
  Alcotest.(check string) "store hit source" "store" (reply_source replay);
  Alcotest.(check string)
    "store hit byte-identical" (result_string fresh)
    (result_string replay);
  (* The store hit promoted the record into the LRU. *)
  Alcotest.(check string)
    "promoted to lru" "lru"
    (reply_source (reply_of_line svc solve_line))

let test_service_eviction_falls_back_to_store () =
  with_tmp_dir @@ fun dir ->
  with_store_service ~cache_capacity:1 dir @@ fun svc ->
  let first = reply_of_line svc solve_line in
  Alcotest.(check string) "first source" "solve" (reply_source first);
  (* A second distinct instance evicts the first from the 1-entry
     LRU; the store write-back happened before the eviction, so the
     first instance is still served — from disk, byte-identical. *)
  let other = reply_of_line svc solve_line_b in
  Alcotest.(check string) "other source" "solve" (reply_source other);
  let evicted = reply_of_line svc solve_line in
  Alcotest.(check bool)
    "evicted still cached" true
    (reply_field_bool "cached" evicted);
  Alcotest.(check string) "evicted source" "store" (reply_source evicted);
  Alcotest.(check string)
    "evicted byte-identical" (result_string first)
    (result_string evicted)

(* A solve whose store append fails still answers from the solve, and
   still fills the LRU; the failure shows only as a counter. *)
let test_service_survives_failed_append () =
  with_tmp_dir @@ fun dir ->
  with_store_service dir @@ fun svc ->
  rm_rf dir;
  let first = reply_of_line svc solve_line in
  Alcotest.(check bool) "first ok" true (reply_field_bool "ok" first);
  Alcotest.(check string) "first source" "solve" (reply_source first);
  let again = reply_of_line svc solve_line in
  Alcotest.(check string) "second source" "lru" (reply_source again);
  let failed =
    match Json.member "store" (Service.stats_json svc) with
    | Some store -> Json.member "append_failed" store
    | None -> None
  in
  Alcotest.(check bool) "append_failed counted" true
    (failed = Some (Json.Num 1.0));
  Alcotest.(check bool) "append_failed exported" true
    (List.mem {|tamoptd_store_events_total{event="append_failed"} 1|}
       (String.split_on_char '\n' (Service.metrics_text svc)))

(* ---- rows survive the store round trip ---- *)

let test_row_json_round_trip () =
  let soc = Benchmarks.s1 () in
  match Sweep.cells soc ~num_buses:2 ~widths:[ 16 ] with
  | [ cell ] ->
      let row = Sweep.solve_one cell in
      (* A MILP seed-fallback row carries one extra field; every other
         row keeps its bytes. *)
      let fallback = { row with Sweep.optimal = false; seed_fallback = true } in
      List.iter
        (fun row ->
          match Sweep.row_of_json (Sweep.json_of_row row) with
          | Ok row' -> Alcotest.(check bool) "round trip" true (row = row')
          | Error msg -> Alcotest.failf "round trip failed: %s" msg)
        [ row; fallback ];
      Alcotest.(check bool) "flag only on fallback rows" true
        (Json.member "seed_fallback" (Sweep.json_of_row row) = None
        && Json.member "seed_fallback" (Sweep.json_of_row fallback)
           = Some (Json.Bool true));
      (match Sweep.row_of_json (Json.Str "nonsense") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "non-object accepted")
  | _ -> Alcotest.fail "expected one cell"

(* ---- torture: clean batch, and every fault must be caught ---- *)

let test_torture_clean_batch () =
  let outcome = Torture.run ~seed:11 ~budget:12 () in
  Alcotest.(check int) "all executed" 12 outcome.Torture.executed;
  match outcome.Torture.failure with
  | None -> ()
  | Some r ->
      Alcotest.failf "healthy store failed torture (seed %d): %s"
        r.Torture.case_seed r.Torture.failure.Torture.message

let test_torture_catches_faults () =
  List.iter
    (fun fault ->
      let outcome =
        Torture.run ~fault ~shrink:true ~seed:1 ~budget:40 ()
      in
      match outcome.Torture.failure with
      | None ->
          Alcotest.failf "fault %s escaped %d torture schedules"
            (Torture.fault_name fault) outcome.Torture.executed
      | Some r -> (
          (* The shrunk repro still fails with the fault injected and
             passes on the healthy store. *)
          let repro =
            Option.value r.Torture.shrunk ~default:r.Torture.schedule
          in
          (match Torture.replay ~use_fault:true repro with
          | Error _ -> ()
          | Ok () ->
              Alcotest.failf "shrunk %s repro no longer fails"
                (Torture.fault_name fault));
          match Torture.replay repro with
          | Ok () -> ()
          | Error f ->
              Alcotest.failf "healthy store fails %s repro: %s"
                (Torture.fault_name fault) f.Torture.message))
    [ Torture.Skip_crc;
      Torture.Drop_writes;
      Torture.Stale_compact;
      Torture.Append_past_torn ]

(* ---- the committed .fault corpus ---- *)

let test_fault_corpus_replay () =
  let entries =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".fault")
    |> List.sort compare
  in
  if List.length entries < 2 then
    Alcotest.failf "expected >= 2 .fault corpus entries, found %d"
      (List.length entries);
  List.iter
    (fun name ->
      match Torture.load_file (Filename.concat "corpus" name) with
      | Error msg -> Alcotest.failf "corpus %s unreadable: %s" name msg
      | Ok sched -> (
          (* The recorded fault must still reproduce... *)
          (match Torture.replay ~use_fault:true sched with
          | Error _ -> ()
          | Ok () ->
              Alcotest.failf "corpus %s no longer fails with its fault"
                name);
          (* ...and the shipped store must pass the same schedule. *)
          match Torture.replay sched with
          | Ok () -> ()
          | Error f ->
              Alcotest.failf "corpus %s regressed: op %d: %s" name
                f.Torture.op_index f.Torture.message))
    entries

let test_schedule_text_round_trip () =
  let sched =
    Torture.schedule_of_seed ~ops:24 ~fault:Torture.Skip_crc 42
  in
  match Torture.schedule_of_string (Torture.schedule_to_string sched)
  with
  | Ok sched' ->
      Alcotest.(check bool) "round trip" true (sched = sched')
  | Error msg -> Alcotest.failf "schedule text round trip: %s" msg

let suite =
  [ Alcotest.test_case "crc32 known answers" `Quick
      test_crc32_known_answers;
    Alcotest.test_case "frame round trip and torn prefixes" `Quick
      test_frame_round_trip;
    Alcotest.test_case "frame rejects damage" `Quick
      test_frame_rejects_damage;
    Alcotest.test_case "recovery at every truncation point" `Quick
      test_truncation_sweep;
    Alcotest.test_case "appends behind a torn tail survive reopen" `Quick
      test_append_after_torn_tail_recovers;
    Alcotest.test_case "genuine misses never trigger a rebuild" `Quick
      test_miss_does_not_rebuild;
    Alcotest.test_case "hit served beside corrupt frames" `Quick
      test_hit_beside_corrupt_frames;
    Alcotest.test_case "stale index entry is a miss" `Quick
      test_stale_entry_is_a_miss;
    Alcotest.test_case "compaction skips a stale entry" `Quick
      test_compaction_skips_stale_entry;
    Alcotest.test_case "compaction equivalence" `Quick
      test_compaction_equivalence;
    Alcotest.test_case "two processes share one directory" `Quick
      test_two_process_sharing;
    Alcotest.test_case "service store tier is byte-identical" `Quick
      test_service_store_tier;
    Alcotest.test_case "evicted entries fall back to the store" `Quick
      test_service_eviction_falls_back_to_store;
    Alcotest.test_case "a failed append still serves the solve" `Quick
      test_service_survives_failed_append;
    Alcotest.test_case "sweep rows round-trip through JSON" `Quick
      test_row_json_round_trip;
    Alcotest.test_case "torture clean batch" `Quick
      test_torture_clean_batch;
    Alcotest.test_case "torture catches every injected fault" `Slow
      test_torture_catches_faults;
    Alcotest.test_case "fault corpus replays" `Quick
      test_fault_corpus_replay;
    Alcotest.test_case "schedule text round trip" `Quick
      test_schedule_text_round_trip ]
