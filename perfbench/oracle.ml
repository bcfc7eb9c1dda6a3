(* The reply oracle.

   A fresh reply is checked against an independent reference: the
   optimum [Exact.solve] computes for the same instance, and
   [Verify.check] on the architecture the reply carries. A cached reply
   is checked byte for byte against the first reply the daemon gave for
   the same request line, from its ["result"] member on — the fields
   before it ([id], [trace_id], [ok], [cached], [source],
   [elapsed_ms]) legitimately differ. *)

module Json = Soctam_obs.Json
module Problem = Soctam_core.Problem
module Exact = Soctam_core.Exact
module Verify = Soctam_core.Verify
module Architecture = Soctam_core.Architecture
module Floorplan = Soctam_layout.Floorplan
module Conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts
module Protocol = Soctam_service.Protocol

(* The daemon's derivation of the per-request pair lists. *)
let constraints_of soc (inst : Protocol.instance) =
  let exclusion_pairs =
    match inst.d_max_mm with
    | None -> []
    | Some d -> Conflicts.exclusion_pairs (Floorplan.place soc) ~d_max_mm:d
  in
  let co_pairs =
    match inst.p_max_mw with
    | None -> []
    | Some p -> Power_conflicts.co_assignment_pairs soc ~p_max_mw:p
  in
  { Problem.exclusion_pairs; co_pairs }

let problem (inst : Protocol.instance) =
  let soc = Workload.soc_of inst in
  Problem.make ~time_model:inst.time_model
    ~constraints:(constraints_of soc inst)
    soc ~num_buses:inst.num_buses ~total_width:inst.total_width

let reference inst = Option.map snd (Exact.solve (problem inst)).Exact.solution

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go 0

let result_marker = ",\"result\":"

(* Everything from the ["result"] member to the end of the line. *)
let result_part line =
  match find_sub line result_marker with
  | Some i -> Some (String.sub line i (String.length line - i))
  | None -> None

(* [result_part line = Some part], without the copy. *)
let same_result line part =
  match find_sub line result_marker with
  | None -> false
  | Some i ->
      let n = String.length part in
      String.length line - i = n
      &&
      let rec eq k = k = n || (line.[i + k] = part.[k] && eq (k + 1)) in
      eq 0

(* The serving tier of a reply: ['l']ru, ['s']tore, ['f']resh solve, or
   ['x'] for anything that is not an ok work reply. *)
let source line =
  match find_sub line "\"ok\":true" with
  | None -> 'x'
  | Some _ -> (
      match find_sub line "\"source\":\"" with
      | Some i when i + 10 < String.length line -> (
          match line.[i + 10] with
          | 'l' -> 'l'
          | 's' when line.[i + 11] = 't' -> 's'
          | 's' -> 'f'
          | _ -> 'x')
      | _ -> 'x')

let ( let* ) = Result.bind

let member name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "reply has no %S" name)

let ints = function
  | Json.Arr xs ->
      Ok
        (Array.of_list
           (List.map (function Json.Num f -> int_of_float f | _ -> -1) xs))
  | _ -> Error "expected an int array"

let the_row line =
  let* json = Json.parse line in
  let* ok = member "ok" json in
  let* () = if ok = Json.Bool true then Ok () else Error ("not ok: " ^ line) in
  let* result = member "result" json in
  match Json.member "rows" result with
  | Some (Json.Arr [ row ]) -> Ok row
  | _ -> Error "reply does not hold exactly one row"

(* A fresh reply: optimal, at the reference optimum, with an
   architecture the independent checker accepts. *)
let check_fresh ~reference:expected (inst : Protocol.instance) line =
  let* row = the_row line in
  let* optimal = member "optimal" row in
  let* () =
    if optimal = Json.Bool true then Ok () else Error "row is not optimal"
  in
  let* test_time = member "test_time" row in
  match (expected, test_time) with
  | None, Json.Null -> Ok ()
  | Some t, Json.Num f when Float.is_integer f && int_of_float f = t ->
      let* widths = Result.bind (member "widths" row) ints in
      let* assignment = Result.bind (member "assignment" row) ints in
      Verify.check (problem inst)
        (Architecture.make ~widths ~assignment)
        ~claimed_time:t
  | _ ->
      Error
        (Printf.sprintf "test_time %s, reference %s" (Json.to_string test_time)
           (match expected with Some t -> string_of_int t | None -> "none"))

(* The reply the daemon owes a core-shuffled twin: the original's
   result with each row's assignment read through [src]. Both sides go
   through one parse and print, so the comparison stays byte for
   byte. *)
let permuted_result ~src part =
  let body = String.sub part 10 (String.length part - 11) in
  let remap_row = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "assignment", Json.Arr xs ->
                   let a = Array.of_list xs in
                   ("assignment", Json.Arr (Array.to_list (Array.map (Array.get a) src)))
               | kv -> kv)
             fields)
    | j -> j
  in
  match Json.parse body with
  | Ok (Json.Obj fields) ->
      Ok
        (Json.to_string
           (Json.Obj
              (List.map
                 (function
                   | "rows", Json.Arr rows -> ("rows", Json.Arr (List.map remap_row rows))
                   | kv -> kv)
                 fields)))
  | Ok _ -> Error "result is not an object"
  | Error msg -> Error msg

let reprint part =
  let body = String.sub part 10 (String.length part - 11) in
  Result.map Json.to_string (Json.parse body)
