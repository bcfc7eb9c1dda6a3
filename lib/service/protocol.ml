module Json = Soctam_obs.Json
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Test_time = Soctam_soc.Test_time
module Benchmarks = Soctam_soc.Benchmarks
module Soc_file = Soctam_soc.Soc_file
module Problem = Soctam_core.Problem
module Floorplan = Soctam_layout.Floorplan
module Layout_conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts

type solver = Exact | Ilp | Heuristic | Race | Pack

type soc_spec = Named of string | Inline of Soc.t

type instance = {
  soc_spec : soc_spec;
  solver : solver;
  num_buses : int;
  total_width : int;
  time_model : Test_time.model;
  d_max_mm : float option;
  p_max_mw : float option;
}

type request =
  | Solve of {
      instance : instance;
      deadline_ms : float option;
      stream : bool;
    }
  | Sweep of {
      instance : instance;
      widths : int list;
      deadline_ms : float option;
      stream : bool;
    }
  | Stats
  | Ping
  | Health
  | Sleep of { ms : float }
  | Shutdown

let solver_name = function
  | Exact -> "exact"
  | Ilp -> "ilp"
  | Heuristic -> "heuristic"
  | Race -> "race"
  | Pack -> "pack"

let id_of json =
  match Json.member "id" json with Some v -> v | None -> Json.Null

(* Trace ids are opaque client strings, bounded so a log line cannot be
   blown up by a megabyte id. Content is unrestricted — Json escaping
   keeps log lines one-per-line regardless of embedded newlines or
   quotes. *)
let max_trace_id_len = 64

let trace_id_of json =
  match Json.member "trace_id" json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) ->
      if String.length s > max_trace_id_len then
        Error
          (Printf.sprintf "trace_id exceeds %d bytes" max_trace_id_len)
      else Ok (Some s)
  | Some _ -> Error "trace_id must be a string"

(* ---- field accessors with typed errors ---- *)

let ( let* ) = Result.bind

(* Values far above any plausible SOC are rejected outright: a width
   or core count in the millions would only serve to exhaust the
   daemon's memory building staircases and memo tables. The bound also
   keeps [int_of_float] inside the range where the conversion is
   defined. *)
let max_dimension = 100_000

let as_int ~what = function
  | Json.Num x when Float.is_integer x && Float.abs x <= 1e15 ->
      Ok (int_of_float x)
  | _ -> Error (Printf.sprintf "%s must be an integer" what)

let as_pos_int ~what json =
  let* n = as_int ~what json in
  if n < 1 then Error (Printf.sprintf "%s must be a positive integer" what)
  else if n > max_dimension then
    Error (Printf.sprintf "%s exceeds the service cap (%d)" what max_dimension)
  else Ok n

let as_num ~what = function
  | Json.Num x -> Ok x
  | _ -> Error (Printf.sprintf "%s must be a number" what)

let as_bool ~what = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s must be a boolean" what)

let as_str ~what = function
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "%s must be a string" what)

let opt_field json key conv =
  match Json.member key json with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* v = conv ~what:key v in
      Ok (Some v)

let req_field json key conv =
  match Json.member key json with
  | None | Some Json.Null -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> conv ~what:key v

let with_default d = function Some v -> v | None -> d

(* ---- inline SOC objects ---- *)

let parse_core json =
  let* name = req_field json "name" as_str in
  let ctx msg = Printf.sprintf "core %S: %s" name msg in
  let remap r = Result.map_error ctx r in
  let* inputs = remap (req_field json "inputs" as_int) in
  let* outputs = remap (req_field json "outputs" as_int) in
  let* patterns = remap (req_field json "patterns" as_int) in
  let* ff = remap (opt_field json "ff" as_int) in
  let* chains = remap (opt_field json "chains" as_int) in
  let* power_mw = remap (opt_field json "power_mw" as_num) in
  let* dim_mm =
    match Json.member "dim_mm" json with
    | None | Some Json.Null -> Ok None
    | Some (Json.Arr [ Json.Num w; Json.Num h ]) -> Ok (Some (w, h))
    | Some _ -> Error (ctx "dim_mm must be [width, height]")
  in
  let flip_flops = with_default 0 ff in
  let scan =
    if flip_flops = 0 then Core_def.Combinational
    else
      Core_def.Scan
        { flip_flops; chains = with_default 1 chains }
  in
  let power_mw =
    with_default
      (Benchmarks.derived_power_mw ~inputs ~outputs ~flip_flops)
      power_mw
  in
  let dim_mm =
    with_default
      (Benchmarks.derived_dim_mm ~inputs ~outputs ~flip_flops)
      dim_mm
  in
  match
    Core_def.make ~name ~inputs ~outputs ~scan ~patterns ~power_mw ~dim_mm
  with
  | core -> Ok core
  | exception Invalid_argument msg -> Error (ctx msg)

let parse_soc_spec json =
  match json with
  | Json.Str spec -> Ok (Named spec)
  | Json.Obj _ -> (
      let* name = req_field json "name" as_str in
      let* cores =
        match Json.member "cores" json with
        | Some (Json.Arr cores) when cores <> [] ->
            List.fold_left
              (fun acc core ->
                let* acc = acc in
                let* core = parse_core core in
                Ok (core :: acc))
              (Ok []) cores
            |> Result.map List.rev
        | _ -> Error "soc.cores must be a non-empty array"
      in
      match Soc.make ~name cores with
      | soc -> Ok (Inline soc)
      | exception Invalid_argument msg -> Error ("soc: " ^ msg))
  | _ -> Error "soc must be a spec string or an inline object"

(* ---- requests ---- *)

let solver_of_string = function
  | "exact" -> Ok Exact
  | "ilp" -> Ok Ilp
  | "heuristic" -> Ok Heuristic
  | "race" -> Ok Race
  | "pack" -> Ok Pack
  | _ -> Error "must be \"exact\", \"ilp\", \"heuristic\", \"race\" or \"pack\""

let model_of_string = function
  | "serialization" -> Ok Test_time.Serialization
  | "scan" -> Ok Test_time.Scan_distribution
  | _ -> Error "must be \"serialization\" or \"scan\""

(* A non-string value is rejected like an unknown name. *)
let parse_name of_string ~what json =
  let name = match json with Json.Str s -> s | _ -> "" in
  Result.map_error (fun msg -> what ^ " " ^ msg) (of_string name)

let parse_solver = parse_name solver_of_string
let parse_model = parse_name model_of_string

let parse_instance ?widths json =
  let* soc_json =
    match Json.member "soc" json with
    | None | Some Json.Null -> Error "missing field \"soc\""
    | Some v -> Ok v
  in
  let* soc_spec = parse_soc_spec soc_json in
  let* solver = opt_field json "solver" parse_solver in
  let* num_buses = req_field json "num_buses" as_pos_int in
  let* total_width =
    match widths with
    | Some ws -> Ok (List.fold_left max 1 ws)
    | None -> req_field json "total_width" as_pos_int
  in
  let* time_model = opt_field json "model" parse_model in
  let* d_max_mm = opt_field json "d_max" as_num in
  let* p_max_mw = opt_field json "p_max" as_num in
  if num_buses > total_width then
    Error
      (Printf.sprintf "num_buses (%d) exceeds total_width (%d)" num_buses
         total_width)
  else
    Ok
      { soc_spec;
        solver = with_default Exact solver;
        num_buses;
        total_width;
        time_model = with_default Test_time.Serialization time_model;
        d_max_mm;
        p_max_mw }

let parse_deadline json =
  let* d = opt_field json "deadline_ms" as_num in
  match d with
  | Some ms when ms < 0.0 -> Error "deadline_ms must be non-negative"
  | d -> Ok d

let parse_stream json =
  let* s = opt_field json "stream" as_bool in
  Ok (with_default false s)

let parse_widths json =
  match Json.member "widths" json with
  | Some (Json.Arr ws) when List.length ws > 4096 ->
      Error "sweep: widths has more than 4096 entries"
  | Some (Json.Arr ws) when ws <> [] ->
      List.fold_left
        (fun acc w ->
          let* acc = acc in
          let* w = as_pos_int ~what:"widths element" w in
          Ok (w :: acc))
        (Ok []) ws
      |> Result.map List.rev
  | _ -> Error "sweep: widths must be a non-empty array of integers"

let parse_request json =
  match json with
  | Json.Obj _ -> (
      let* op = req_field json "op" as_str in
      let ctx msg = Printf.sprintf "%s: %s" op msg in
      match op with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "health" -> Ok Health
      | "shutdown" -> Ok Shutdown
      | "sleep" ->
          let* ms =
            Result.map_error ctx (req_field json "ms" as_num)
          in
          if ms < 0.0 || ms > 60_000.0 then
            Error (ctx "ms must be in [0, 60000]")
          else Ok (Sleep { ms })
      | "solve" ->
          let* instance = Result.map_error ctx (parse_instance json) in
          let* deadline_ms = Result.map_error ctx (parse_deadline json) in
          let* stream = Result.map_error ctx (parse_stream json) in
          Ok (Solve { instance; deadline_ms; stream })
      | "sweep" ->
          let* widths = parse_widths json in
          let* instance =
            Result.map_error ctx (parse_instance ~widths json)
          in
          let* deadline_ms = Result.map_error ctx (parse_deadline json) in
          let* stream = Result.map_error ctx (parse_stream json) in
          Ok (Sweep { instance; widths; deadline_ms; stream })
      | other -> Error (Printf.sprintf "unknown op %S" other))
  | _ -> Error "request must be a JSON object"

(* ---- server-side SOC resolution ---- *)

let resolve_named spec =
  match spec with
  | "s1" | "S1" -> Ok (Benchmarks.s1 ())
  | "s2" | "S2" -> Ok (Benchmarks.s2 ())
  | "s3" | "S3" -> Ok (Benchmarks.s3 ())
  | spec -> (
      match String.split_on_char ':' spec with
      | [ "rnd"; seed; n ] -> (
          match (int_of_string_opt seed, int_of_string_opt n) with
          | Some _, Some n when n > max_dimension ->
              Error
                (Printf.sprintf "rnd core count exceeds the service cap (%d)"
                   max_dimension)
          | Some seed, Some n -> (
              match Benchmarks.random ~seed ~num_cores:n () with
              | soc -> Ok soc
              | exception Invalid_argument msg -> Error msg)
          | _ -> Error "rnd:<seed>:<n> takes two integers")
      | "file" :: rest -> Soc_file.of_file (String.concat ":" rest)
      | _ ->
          Error
            (Printf.sprintf
               "unknown SOC %S (use s1, s2, s3, rnd:<seed>:<n>, \
                file:<path> or an inline object)" spec))

let resolve_soc = function
  | Inline soc -> Ok soc
  | Named spec -> resolve_named spec

let constraints_of ~d_max_mm ~p_max_mw soc =
  let exclusion_pairs =
    match d_max_mm with
    | None -> []
    | Some d ->
        Layout_conflicts.exclusion_pairs (Floorplan.place soc) ~d_max_mm:d
  in
  let co_pairs =
    match p_max_mw with
    | None -> []
    | Some p -> Power_conflicts.co_assignment_pairs soc ~p_max_mw:p
  in
  { Problem.exclusion_pairs; co_pairs }

(* ---- client-side rendering ---- *)

let json_of_soc_spec = function
  | Named spec -> Json.Str spec
  | Inline soc ->
      let core c =
        let w, h = c.Core_def.dim_mm in
        Json.Obj
          [ ("name", Json.Str c.Core_def.name);
            ("inputs", Json.int c.Core_def.inputs);
            ("outputs", Json.int c.Core_def.outputs);
            ("ff", Json.int (Core_def.flip_flops c));
            ("chains", Json.int (Core_def.chains c));
            ("patterns", Json.int c.Core_def.patterns);
            ("power_mw", Json.Num c.Core_def.power_mw);
            ("dim_mm", Json.Arr [ Json.Num w; Json.Num h ]) ]
      in
      Json.Obj
        [ ("name", Json.Str (Soc.name soc));
          ( "cores",
            Json.Arr (Array.to_list (Array.map core (Soc.cores soc))) ) ]

let instance_fields instance =
  [ ("soc", json_of_soc_spec instance.soc_spec);
    ("solver", Json.Str (solver_name instance.solver));
    ("num_buses", Json.int instance.num_buses);
    ( "model",
      Json.Str
        (match instance.time_model with
        | Test_time.Serialization -> "serialization"
        | Test_time.Scan_distribution -> "scan") ) ]
  @ (match instance.d_max_mm with
    | Some d -> [ ("d_max", Json.Num d) ]
    | None -> [])
  @
  match instance.p_max_mw with
  | Some p -> [ ("p_max", Json.Num p) ]
  | None -> []

let deadline_fields = function
  | Some ms -> [ ("deadline_ms", Json.Num ms) ]
  | None -> []

let stream_fields = function
  | true -> [ ("stream", Json.Bool true) ]
  | false -> []

let json_of_request ?id ?trace_id req =
  let id = match id with Some v -> [ ("id", v) ] | None -> [] in
  let trace =
    match trace_id with Some s -> [ ("trace_id", Json.Str s) ] | None -> []
  in
  let fields =
    match req with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Stats -> [ ("op", Json.Str "stats") ]
    | Health -> [ ("op", Json.Str "health") ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
    | Sleep { ms } -> [ ("op", Json.Str "sleep"); ("ms", Json.Num ms) ]
    | Solve { instance; deadline_ms; stream } ->
        (("op", Json.Str "solve") :: instance_fields instance)
        @ [ ("total_width", Json.int instance.total_width) ]
        @ deadline_fields deadline_ms
        @ stream_fields stream
    | Sweep { instance; widths; deadline_ms; stream } ->
        (("op", Json.Str "sweep") :: instance_fields instance)
        @ [ ("widths", Json.Arr (List.map Json.int widths)) ]
        @ deadline_fields deadline_ms
        @ stream_fields stream
  in
  Json.Obj (id @ trace @ fields)

let trace_fields = function
  | Some s -> [ ("trace_id", Json.Str s) ]
  | None -> []

let ok_reply ~id ?trace_id ?cached ?source ?elapsed_ms result =
  Json.Obj
    (("id", id) :: trace_fields trace_id
    @ [ ("ok", Json.Bool true) ]
    @ (match cached with
      | Some c -> [ ("cached", Json.Bool c) ]
      | None -> [])
    @ (match source with
      | Some s -> [ ("source", Json.Str s) ]
      | None -> [])
    @ (match elapsed_ms with
      | Some ms -> [ ("elapsed_ms", Json.Num ms) ]
      | None -> [])
    @ [ ("result", result) ])

let error_reply ~id ?trace_id ~code message =
  Json.Obj
    (("id", id) :: trace_fields trace_id
    @ [ ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            [ ("code", Json.Str code); ("message", Json.Str message) ] ) ])

(* An event line carries "event" but never "ok": readers detect the
   final reply of a streamed exchange by the presence of "ok". *)
let incumbent_event ~id ?trace_id ~test_time ~engine ~elapsed_ms () =
  Json.Obj
    (("id", id) :: trace_fields trace_id
    @ [ ("event", Json.Str "incumbent");
        ("test_time", Json.int test_time);
        ("engine", Json.Str engine);
        ("elapsed_ms", Json.Num elapsed_ms) ])

let is_final_reply json =
  match json with Json.Obj _ -> Json.member "ok" json <> None | _ -> true

let reply_code reply =
  match Json.member "ok" reply with
  | Some (Json.Bool true) -> "ok"
  | _ -> (
      match Option.bind (Json.member "error" reply) (Json.member "code") with
      | Some (Json.Str code) -> code
      | _ -> "internal")
