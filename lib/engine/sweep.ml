module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Ilp = Soctam_core.Ilp_formulation
module Heuristics = Soctam_core.Heuristics
module Soc = Soctam_soc.Soc
module Test_time = Soctam_soc.Test_time
module Memo = Soctam_soc.Memo
module Rect_sched = Soctam_sched.Rect_sched
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock
module Json = Soctam_obs.Json

type solver =
  | Exact
  | Ilp of {
      time_limit_s : float option;
      presolve : bool;
      cuts : bool;
      seed : bool;
    }
  | Heuristic
  | Race
  | Pack of { p_max_mw : float option }

type cell = {
  soc : Soc.t;
  num_buses : int;
  total_width : int;
  time_model : Test_time.model;
  constraints : Problem.constraints;
  solver : solver;
}

type row = {
  total_width : int;
  num_buses : int;
  solution : (Architecture.t * int) option;
  packing : Rect_sched.t option;
  optimal : bool;
  nodes : int;
  lp_pivots : int;
  max_depth : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  cuts_added : int;
  presolve_fixed : int;
  seeded_bound : int option;
  seed_fallback : bool;
  winner : string option;
  cancelled_nodes : int;
  elapsed_s : float;
}

type totals = {
  cells : int;
  feasible : int;
  nodes : int;
  lp_pivots : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  cuts_added : int;
  presolve_fixed : int;
  solve_s : float;
}

let solver_name = function
  | Exact -> "exact"
  | Ilp _ -> "ilp"
  | Heuristic -> "heuristic"
  | Race -> "race"
  | Pack _ -> "pack"

let cells ?(time_model = Test_time.Serialization)
    ?(constraints = Problem.no_constraints) ?(solver = Exact) soc ~num_buses
    ~widths =
  List.map
    (fun total_width ->
      { soc; num_buses; total_width; time_model; constraints; solver })
    widths

(* One memo per distinct (SOC value, time model) among the cells, each
   built at that group's widest point. Identity is physical: a memo is
   only valid for the very SOC value it was built from. *)
let build_memos cells =
  let groups = ref [] in
  List.iter
    (fun c ->
      match
        List.find_opt
          (fun (soc, model, _) -> soc == c.soc && model = c.time_model)
          !groups
      with
      | Some (_, _, widest) -> widest := max !widest c.total_width
      | None -> groups := (c.soc, c.time_model, ref c.total_width) :: !groups)
    cells;
  List.map
    (fun (soc, model, widest) ->
      (soc, model, Memo.build ~model soc ~max_width:!widest))
    !groups

let solve_cell ?deadline_s ?on_event ?on_ilp_stats memos cell =
  let memo =
    match
      List.find_opt
        (fun (soc, model, _) -> soc == cell.soc && model = cell.time_model)
        memos
    with
    | Some (_, _, memo) -> memo
    | None -> assert false
  in
  let problem =
    Problem.make ~time_model:cell.time_model ~constraints:cell.constraints
      ~memo cell.soc ~num_buses:cell.num_buses
      ~total_width:cell.total_width
  in
  let cell_sp = Obs.start () in
  let start = Clock.now_s () in
  let blank =
    { total_width = cell.total_width;
      num_buses = cell.num_buses;
      solution = None;
      packing = None;
      optimal = true;
      nodes = 0;
      lp_pivots = 0;
      max_depth = 0;
      warm_starts = 0;
      cold_solves = 0;
      refactorizations = 0;
      cuts_added = 0;
      presolve_fixed = 0;
      seeded_bound = None;
      seed_fallback = false;
      winner = None;
      cancelled_nodes = 0;
      elapsed_s = 0.0 }
  in
  let row =
    match cell.solver with
    | Exact ->
        let r = Soctam_core.Exact.solve problem in
        { blank with
          solution = r.Soctam_core.Exact.solution;
          nodes = r.Soctam_core.Exact.stats.Soctam_core.Exact.nodes }
    | Ilp { time_limit_s; presolve; cuts; seed } ->
        let r =
          Ilp.solve ?time_limit_s ?deadline_s ~presolve ~cuts
            ~seed_incumbent:seed problem
        in
        Option.iter (fun f -> f r.Ilp.stats) on_ilp_stats;
        { blank with
          solution = r.Ilp.solution;
          optimal = r.Ilp.optimal;
          nodes = r.Ilp.stats.Ilp.bb_nodes;
          lp_pivots = r.Ilp.stats.Ilp.lp_pivots;
          max_depth = r.Ilp.stats.Ilp.max_depth;
          warm_starts = r.Ilp.stats.Ilp.warm_starts;
          cold_solves = r.Ilp.stats.Ilp.cold_solves;
          refactorizations = r.Ilp.stats.Ilp.refactorizations;
          cuts_added = r.Ilp.stats.Ilp.cuts_added;
          presolve_fixed = r.Ilp.stats.Ilp.presolve_fixed;
          seeded_bound = r.Ilp.stats.Ilp.seeded_bound;
          seed_fallback = r.Ilp.stats.Ilp.seed_fallback }
    | Heuristic ->
        let solution =
          match Heuristics.solve problem with
          | Some { Heuristics.architecture; test_time } ->
              Some (architecture, test_time)
          | None -> None
        in
        { blank with solution; optimal = false }
    | Race ->
        let r = Race.solve ?deadline_s ?on_event problem in
        { blank with
          solution = r.Race.solution;
          optimal = r.Race.optimal;
          nodes = r.Race.nodes;
          winner = r.Race.winner }
    | Pack { p_max_mw } ->
        let r = Race.solve_pack ?deadline_s ?p_max_mw ?on_event problem in
        { blank with
          packing = r.Race.packing;
          optimal = r.Race.optimal;
          nodes = r.Race.nodes;
          winner = r.Race.winner }
  in
  if Obs.enabled () then
    Obs.finish
      ~args:
        [ ("soc", Soc.name cell.soc);
          ("total_width", string_of_int cell.total_width);
          ("num_buses", string_of_int cell.num_buses);
          ("solver", solver_name cell.solver) ]
      "sweep.cell" cell_sp;
  { row with elapsed_s = Clock.elapsed_s ~since:start }

let solve_one ?deadline_s ?on_event ?on_ilp_stats ?memo cell =
  let memos =
    match memo with
    | Some memo
      when Memo.soc memo == cell.soc
           && Memo.model memo = cell.time_model
           && Memo.max_width memo >= cell.total_width ->
        [ (cell.soc, cell.time_model, memo) ]
    | Some _ | None -> build_memos [ cell ]
  in
  solve_cell ?deadline_s ?on_event ?on_ilp_stats memos cell

let run ?pool ?deadline_s ?on_event cells =
  let memos = Obs.span "sweep.build_memos" (fun () -> build_memos cells) in
  let arr = Array.of_list cells in
  let rows =
    match pool with
    | None -> Array.map (solve_cell ?deadline_s ?on_event memos) arr
    | Some pool -> Pool.map pool ~f:(solve_cell ?deadline_s ?on_event memos) arr
  in
  Array.to_list rows

let totals rows =
  List.fold_left
    (fun acc r ->
      { cells = acc.cells + 1;
        feasible =
          (acc.feasible
          + if r.solution = None && r.packing = None then 0 else 1);
        nodes = acc.nodes + r.nodes;
        lp_pivots = acc.lp_pivots + r.lp_pivots;
        warm_starts = acc.warm_starts + r.warm_starts;
        cold_solves = acc.cold_solves + r.cold_solves;
        refactorizations = acc.refactorizations + r.refactorizations;
        cuts_added = acc.cuts_added + r.cuts_added;
        presolve_fixed = acc.presolve_fixed + r.presolve_fixed;
        solve_s = acc.solve_s +. r.elapsed_s })
    { cells = 0;
      feasible = 0;
      nodes = 0;
      lp_pivots = 0;
      warm_starts = 0;
      cold_solves = 0;
      refactorizations = 0;
      cuts_added = 0;
      presolve_fixed = 0;
      solve_s = 0.0 }
    rows

(* Shared row/totals JSON shape: [tamopt sweep --json] and the bench
   harness both emit it, so downstream tooling parses one schema. *)
let json_of_row r =
  Json.Obj
    ([ ("total_width", Json.int r.total_width);
       ("num_buses", Json.int r.num_buses);
       ( "test_time",
         match (r.solution, r.packing) with
         | Some (_, t), _ -> Json.int t
         | None, Some p -> Json.int p.Rect_sched.makespan
         | None, None -> Json.Null );
       ( "widths",
         match r.solution with
         | Some (arch, _) ->
             Json.Arr
               (Array.to_list
                  (Array.map Json.int arch.Architecture.widths))
         | None -> Json.Null );
       ( "assignment",
         match r.solution with
         | Some (arch, _) ->
             Json.Arr
               (Array.to_list
                  (Array.map Json.int arch.Architecture.assignment))
         | None -> Json.Null );
       ( "placements",
         match r.packing with
         | Some p ->
             Json.Arr
               (List.map
                  (fun (pl : Rect_sched.placement) ->
                    Json.Obj
                      [ ("core", Json.int pl.core);
                        ("width", Json.int pl.width);
                        ("wire_lo", Json.int pl.wire_lo);
                        ("start", Json.int pl.start);
                        ("finish", Json.int pl.finish) ])
                  p.Rect_sched.placements)
         | None -> Json.Null );
       ("feasible", Json.Bool (r.solution <> None || r.packing <> None));
       ("optimal", Json.Bool r.optimal);
       ("nodes", Json.int r.nodes);
       ("lp_pivots", Json.int r.lp_pivots);
       ("max_depth", Json.int r.max_depth);
       ("warm_starts", Json.int r.warm_starts);
       ("cold_solves", Json.int r.cold_solves);
       ("refactorizations", Json.int r.refactorizations);
       ("cuts_added", Json.int r.cuts_added);
       ("presolve_fixed", Json.int r.presolve_fixed);
       ( "seeded_bound",
         match r.seeded_bound with Some b -> Json.int b | None -> Json.Null );
       ( "winner",
         match r.winner with Some w -> Json.Str w | None -> Json.Null );
       ("cancelled_nodes", Json.int r.cancelled_nodes);
       ("elapsed_s", Json.Num r.elapsed_s) ]
    (* Present only on the rare fallback rows, so every other row keeps
       its bytes; an absent field reads back as [false]. *)
    @ if r.seed_fallback then [ ("seed_fallback", Json.Bool true) ] else [])

(* Inverse of [json_of_row], for the persistent result store: a row
   serialized, stored, re-parsed and re-serialized must print the same
   bytes. Unknown fields are rejected loudly rather than defaulted so a
   schema drift between store generations surfaces as a store miss, not
   a silently wrong answer. *)
let row_of_json json =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "row_of_json: missing field %S" name)
  in
  let as_int name = function
    | Json.Num f when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "row_of_json: field %S is not an int" name)
  in
  let int_field name =
    let* v = field name in
    as_int name v
  in
  let int_opt_field name =
    let* v = field name in
    match v with
    | Json.Null -> Ok None
    | v ->
        let* i = as_int name v in
        Ok (Some i)
  in
  let int_array name = function
    | Json.Arr items ->
        let* ints =
          List.fold_left
            (fun acc v ->
              let* acc = acc in
              let* i = as_int name v in
              Ok (i :: acc))
            (Ok []) items
        in
        Ok (Array.of_list (List.rev ints))
    | _ -> Error (Printf.sprintf "row_of_json: field %S is not an array" name)
  in
  let* total_width = int_field "total_width" in
  let* num_buses = int_field "num_buses" in
  let* test_time = int_opt_field "test_time" in
  let* widths = field "widths" in
  let* assignment = field "assignment" in
  let* solution =
    match (widths, assignment, test_time) with
    | Json.Null, Json.Null, _ -> Ok None
    | w, a, Some t -> (
        let* widths = int_array "widths" w in
        let* assignment = int_array "assignment" a in
        match Architecture.make ~widths ~assignment with
        | arch -> Ok (Some (arch, t))
        | exception Invalid_argument msg ->
            Error ("row_of_json: bad architecture: " ^ msg))
    | _ -> Error "row_of_json: widths/assignment without test_time"
  in
  let* placements = field "placements" in
  let* packing =
    match (placements, test_time) with
    | Json.Null, _ -> Ok None
    (* A row never carries both a partition solution and a packing: the
       serialized "test_time" field is shared between them (it holds the
       solution's time when a solution is present), so a both-sided row
       could not round-trip — packing.makespan would be silently replaced
       by the solution's test_time. Reject it rather than guess. *)
    | Json.Arr _, _ when solution <> None ->
        Error "row_of_json: row has both widths/assignment and placements"
    | Json.Arr items, Some makespan ->
        let* placements =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let pl_field name =
                match Json.member name item with
                | Some v -> as_int name v
                | None ->
                    Error
                      (Printf.sprintf "row_of_json: placement missing %S" name)
              in
              let* core = pl_field "core" in
              let* width = pl_field "width" in
              let* wire_lo = pl_field "wire_lo" in
              let* start = pl_field "start" in
              let* finish = pl_field "finish" in
              Ok ({ Rect_sched.core; width; wire_lo; start; finish } :: acc))
            (Ok []) items
        in
        Ok (Some { Rect_sched.placements = List.rev placements; makespan })
    | Json.Arr _, None -> Error "row_of_json: placements without test_time"
    | _, _ -> Error "row_of_json: field \"placements\" is not an array"
  in
  let* optimal =
    let* v = field "optimal" in
    match v with
    | Json.Bool b -> Ok b
    | _ -> Error "row_of_json: field \"optimal\" is not a bool"
  in
  let* nodes = int_field "nodes" in
  let* lp_pivots = int_field "lp_pivots" in
  let* max_depth = int_field "max_depth" in
  let* warm_starts = int_field "warm_starts" in
  let* cold_solves = int_field "cold_solves" in
  let* refactorizations = int_field "refactorizations" in
  let* cuts_added = int_field "cuts_added" in
  let* presolve_fixed = int_field "presolve_fixed" in
  let* seeded_bound = int_opt_field "seeded_bound" in
  let* seed_fallback =
    match Json.member "seed_fallback" json with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "row_of_json: field \"seed_fallback\" is not a bool"
  in
  let* winner =
    let* v = field "winner" in
    match v with
    | Json.Null -> Ok None
    | Json.Str w -> Ok (Some w)
    | _ -> Error "row_of_json: field \"winner\" is not a string"
  in
  let* cancelled_nodes = int_field "cancelled_nodes" in
  let* elapsed_s =
    let* v = field "elapsed_s" in
    match v with
    | Json.Num f -> Ok f
    | _ -> Error "row_of_json: field \"elapsed_s\" is not a number"
  in
  Ok
    { total_width;
      num_buses;
      solution;
      packing;
      optimal;
      nodes;
      lp_pivots;
      max_depth;
      warm_starts;
      cold_solves;
      refactorizations;
      cuts_added;
      presolve_fixed;
      seeded_bound;
      seed_fallback;
      winner;
      cancelled_nodes;
      elapsed_s }

let json_of_totals t =
  Json.Obj
    [ ("cells", Json.int t.cells);
      ("feasible", Json.int t.feasible);
      ("nodes", Json.int t.nodes);
      ("lp_pivots", Json.int t.lp_pivots);
      ("warm_starts", Json.int t.warm_starts);
      ("cold_solves", Json.int t.cold_solves);
      ("refactorizations", Json.int t.refactorizations);
      ("cuts_added", Json.int t.cuts_added);
      ("presolve_fixed", Json.int t.presolve_fixed);
      ("solve_s", Json.Num t.solve_s) ]

let equal_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.total_width = y.total_width
         && x.num_buses = y.num_buses
         && x.solution = y.solution
         && x.packing = y.packing
         && x.optimal = y.optimal
         && x.nodes = y.nodes
         && x.lp_pivots = y.lp_pivots
         && x.max_depth = y.max_depth
         && x.warm_starts = y.warm_starts
         && x.cold_solves = y.cold_solves
         && x.refactorizations = y.refactorizations
         && x.cuts_added = y.cuts_added
         && x.presolve_fixed = y.presolve_fixed
         && x.seeded_bound = y.seeded_bound
         && x.seed_fallback = y.seed_fallback)
       a b
