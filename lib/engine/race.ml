module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Dp_assign = Soctam_core.Dp_assign
module Heuristics = Soctam_core.Heuristics
module Annealing = Soctam_core.Annealing
module Rect_sched = Soctam_sched.Rect_sched
module Pack = Soctam_pack.Pack
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock

type event = { test_time : int; engine : string; elapsed_ms : float }

(* ------------------------------------------------------------------ *)
(* The race protocol, shared by both families                          *)
(* ------------------------------------------------------------------ *)

(* Everything one race's engines share, over incumbents of type ['a]
   scored by [cost]: the incumbent with the engine that published it,
   the lower bound, and the certificate with the engine that issued it.
   The engines run one after another on the caller's domain, so plain
   mutable fields suffice. *)
type 'a ctx = {
  cost : 'a -> int;
  start : float;
  deadline_s : float option;
  mutable cell : (string * 'a) option;
  mutable lb : int;
  mutable certificate : (string * string) option;
  mutable published : int;
  mutable nodes : int;  (* search nodes of the family's complete engines *)
  on_event : event -> unit;
}

let create ?deadline_s ?(on_event = fun _ -> ()) cost =
  { cost;
    start = Clock.now_s ();
    deadline_s;
    cell = None;
    lb = min_int;
    certificate = None;
    published = 0;
    nodes = 0;
    on_event }

let should_stop ctx () =
  Option.is_some ctx.certificate
  ||
  match ctx.deadline_s with
  | Some d -> Clock.now_s () > d
  | None -> false

let incumbent_cost ctx = Option.map (fun (_, inc) -> ctx.cost inc) ctx.cell

(* First certificate wins; every later engine is skipped, and the
   running one stops at its next [should_stop] poll. *)
let certify ctx engine cert =
  if Option.is_none ctx.certificate then begin
    Obs.incr ("race.winner." ^ engine);
    ctx.certificate <- Some (engine, cert)
  end

(* Monotone max on the lower bound, then check whether the current
   incumbent already meets it (a bound-match certificate). *)
let raise_lb ctx engine bound =
  if bound > ctx.lb then ctx.lb <- bound;
  match incumbent_cost ctx with
  | Some t when t <= ctx.lb -> certify ctx engine "bound"
  | _ -> ()

(* Publish a feasible incumbent. Strict improvement only, so the cell's
   cost is monotone non-increasing and every publication is a genuinely
   improving event. *)
let publish ctx engine incumbent =
  let cost = ctx.cost incumbent in
  match ctx.cell with
  | Some (_, inc) when ctx.cost inc <= cost -> ()
  | _ ->
      ctx.cell <- Some (engine, incumbent);
      ctx.published <- ctx.published + 1;
      Obs.incr "race.incumbent";
      Obs.incr ("race.incumbent." ^ engine);
      ctx.on_event
        { test_time = cost;
          engine;
          elapsed_ms = 1000.0 *. Clock.elapsed_s ~since:ctx.start };
      if cost <= ctx.lb then certify ctx engine "bound"

type engine = { name : string; run : unit -> unit }

let engine name run = { name; run }

type 'a verdict = {
  best : 'a option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  elapsed_s : float;
}

(* Run [engines] to a verdict, one after another in list order, each
   inheriting every bound published before it, until a certificate or
   the deadline skips the rest. A certified incumbent is replaced by
   [canonical]'s re-derivation at the certified cost, which makes the
   answer a pure function of the instance, whichever engine certified.
   Should the re-derivation come back empty (a pathology guard ran
   out), the live incumbent stands: still correct, merely not
   canonical. *)
let race ctx ~span ~canonical engines =
  let sp = Obs.start () in
  List.iter
    (fun e ->
      if not (should_stop ctx ()) then begin
        let sp = Obs.start () in
        e.run ();
        Obs.finish ~args:[ ("engine", e.name) ] "race.engine" sp
      end)
    engines;
  let best, optimal, winner, certificate =
    match (ctx.certificate, ctx.cell) with
    | Some (engine, cert), None ->
        (* A complete engine finished with an empty cell: proven
           infeasible. *)
        (None, true, Some engine, Some cert)
    | Some (engine, cert), Some (_, inc) ->
        let canon = Option.value (canonical (ctx.cost inc)) ~default:inc in
        (Some canon, true, Some engine, Some cert)
    | None, Some (source, inc) ->
        (* Deadline expired before any certificate: hand back the best
           incumbent as is, honestly uncertified. *)
        (Some inc, false, Some source, None)
    | None, None -> (None, false, None, None)
  in
  let incumbents = ctx.published in
  Obs.finish
    ~args:
      [ ("winner", Option.value winner ~default:"none");
        ("certificate", Option.value certificate ~default:"none");
        ("incumbents", string_of_int incumbents) ]
    span sp;
  { best;
    optimal;
    winner;
    certificate;
    incumbents;
    elapsed_s = Clock.elapsed_s ~since:ctx.start }

(* ------------------------------------------------------------------ *)
(* The partition family                                                *)
(* ------------------------------------------------------------------ *)

type result = {
  solution : (Architecture.t * int) option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  nodes : int;
  elapsed_s : float;
}

let run_pack ctx problem =
  let bound =
    max (Problem.lower_bound problem) (Rect_sched.lower_bound problem)
  in
  (* The rectangle model is a relaxation of fixed buses (every
     architecture converts to a rectangle schedule of equal makespan),
     so its area bound is a sound lower bound here too. It must stay
     bound-only in THIS race: a packing's makespan can undercut the
     partition optimum, and publishing it into the cell would make the
     DP engine prune the true partition optimum away. The packing
     family races for real in {!solve_pack}, against its own cell. *)
  raise_lb ctx "pack" bound

let run_greedy ctx problem =
  let publish_outcome { Heuristics.architecture; test_time } =
    publish ctx "greedy" (architecture, test_time)
  in
  Option.iter publish_outcome
    (Heuristics.solve ~should_stop:(should_stop ctx) ~report:publish_outcome
       problem)

(* Annealing schedule length in a race: shorter than the standalone
   default, since here the annealer is a refinement engine, not the last
   word. *)
let anneal_iterations = 4000

let run_anneal ctx problem =
  let publish_outcome { Annealing.architecture; test_time } =
    publish ctx "anneal" (architecture, test_time)
  in
  Option.iter publish_outcome
    (Annealing.solve ~iterations:anneal_iterations
       ~should_stop:(should_stop ctx) ~report:publish_outcome problem)

(* The complete enumeration engine over the partitions from [from]
   on, each pruned by the freshest shared incumbent (the DP's
   [upper_bound] is exclusive — equal-valued solutions are already
   covered by the cell). Pruning with a stale (larger) bound is sound:
   it only prunes less. Finishing the last partition un-cancelled
   proves nothing beats the final incumbent, wherever it came from —
   including partitions an earlier call finished against a looser
   bound. Returns the first partition not finished: it stopped, or ran
   out of [node_budget], which spans the whole call. *)
let dp_partitions ?node_budget ctx problem partitions from =
  let n = Array.length partitions in
  let nodes = ref 0 in
  let rec go i =
    if i = n || should_stop ctx () then i
    else begin
      let widths = partitions.(i) in
      let outcome, s =
        Dp_assign.solve_with_stats ?upper_bound:(incumbent_cost ctx)
          ?node_budget:(Option.map (fun b -> b - !nodes) node_budget)
          problem ~widths
      in
      nodes := !nodes + s.Dp_assign.nodes;
      (match outcome with
      | Some { Dp_assign.assignment; test_time } ->
          publish ctx "dp" (Architecture.make ~widths ~assignment, test_time)
      | None -> ());
      if s.Dp_assign.complete then go (i + 1) else i
    end
  in
  let next = go from in
  ctx.nodes <- ctx.nodes + !nodes;
  if next = n then certify ctx "dp" "dp";
  next

(* Node budget of the race's certify-first DP probe. The
   designer loop's races are small: on perfbench's store_churn (6-10
   cores) DP certified every one in 12-346 us, 160 nodes at the median
   and 6,144 at most, while greedy and annealing spent ~2.6 of the
   race's ~2.8 ms before DP started. At the ~134 ns per node measured
   then, this budget is about 2 ms, roughly what greedy plus annealing
   cost there, and 2.7x the largest need seen. So the probe closes
   those races outright, and a race it cannot close pays at most about
   one heuristic phase before the heuristics run (less since a DP node
   costs ~45-75 ns, plus ~6-13 us of set-up per width partition on
   24-32 cores). *)
let probe_node_budget = 16_384

(* Returns the first partition the probe did not finish, where the
   resumed DP engine picks up. *)
let run_dp_probe ctx problem partitions =
  let sp = Obs.start () in
  let next =
    dp_partitions ~node_budget:probe_node_budget ctx problem partitions 0
  in
  Obs.finish
    ~args:[ ("closed", string_of_bool (next = Array.length partitions)) ]
    "race.probe" sp;
  next

(* The partition family's canonical re-derivation: DP passes bounded
   just above [t_star], in partition order. The cell only holds feasible
   architectures, so some partition rediscovers one at [t_star]; that is
   certified optimal, so the first partition to meet it is the answer. *)
let canonical_architecture problem partitions t_star =
  Obs.span "race.finalize" @@ fun () ->
  Array.find_map
    (fun widths ->
      Option.map
        (fun { Dp_assign.assignment; test_time } ->
          (Architecture.make ~widths ~assignment, test_time))
        (Dp_assign.solve ~upper_bound:(t_star + 1) problem ~widths))
    partitions

let solve ?deadline_s ?on_event problem =
  let ctx = create ?deadline_s ?on_event snd in
  let partitions =
    Array.of_list
      (List.map Array.of_list
         (Exact.width_partitions ~total:(Problem.total_width problem)
            ~parts:(Problem.num_buses problem)))
  in
  let dp_next = ref 0 in
  (* Certify-first: the bound, then the budgeted DP probe, which closes
     most designer-loop races outright; otherwise DP resumes where the
     probe stopped, so no partition is solved twice. *)
  let v =
    race ctx ~span:"race.solve"
      ~canonical:(canonical_architecture problem partitions)
      [ engine "pack" (fun () -> run_pack ctx problem);
        engine "dp" (fun () -> dp_next := run_dp_probe ctx problem partitions);
        engine "greedy" (fun () -> run_greedy ctx problem);
        engine "anneal" (fun () -> run_anneal ctx problem);
        engine "dp" (fun () ->
            ignore (dp_partitions ctx problem partitions !dp_next : int)) ]
  in
  { solution = v.best;
    optimal = v.optimal;
    winner = v.winner;
    certificate = v.certificate;
    incumbents = v.incumbents;
    nodes = ctx.nodes;
    elapsed_s = v.elapsed_s }

(* ------------------------------------------------------------------ *)
(* The rectangle-packing family                                        *)
(* ------------------------------------------------------------------ *)

type pack_result = {
  packing : Rect_sched.t option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  nodes : int;
  lower_bound : int;
  elapsed_s : float;
}

(* Exact-packer node cap, for the race and its re-derivation alike; on
   a blow the race returns its best incumbent, uncertified. *)
let pack_node_budget = 2_000_000

let run_pack_greedy ctx ?p_max_mw problem =
  (* Raise the shared bound first so an early bound-match can end the
     race before the exact engine even starts. *)
  raise_lb ctx "pack-greedy" (Pack.lower_bound ?p_max_mw problem);
  ignore
    (Pack.greedy ?p_max_mw ~should_stop:(should_stop ctx)
       ~report:(publish ctx "pack-greedy") problem
      : Rect_sched.t)

let run_pack_exact ctx ?p_max_mw problem =
  let r =
    Pack.exact ?p_max_mw ~node_budget:pack_node_budget
      ~upper_bound:(fun () -> incumbent_cost ctx)
      ~on_incumbent:(publish ctx "pack-exact")
      ~should_stop:(should_stop ctx) problem
  in
  ctx.nodes <- ctx.nodes + r.Pack.nodes;
  if r.Pack.optimal then certify ctx "pack-exact" "exact"

(* The packing family's canonical re-derivation: a sequential exact
   search bounded just above the certified makespan, which must
   rediscover a packing at it; that makespan is optimal, so the search
   stops at its first incumbent. *)
let canonical_packing ?p_max_mw problem t_star =
  Obs.span "race.finalize" @@ fun () ->
  let found = ref false in
  let r =
    Pack.exact ?p_max_mw ~node_budget:pack_node_budget
      ~upper_bound:(fun () -> Some (t_star + 1))
      ~on_incumbent:(fun _ -> found := true)
      ~should_stop:(fun () -> !found)
      problem
  in
  match r.Pack.packing with
  | Some p when p.Rect_sched.makespan <= t_star -> Some p
  | _ -> None

(* Kept apart from [solve]'s cell because the two makespans live in
   different models — see {!run_pack}. *)
let solve_pack ?deadline_s ?p_max_mw ?on_event problem =
  let ctx =
    create ?deadline_s ?on_event (fun (p : Rect_sched.t) -> p.makespan)
  in
  let v =
    race ctx ~span:"race.solve_pack"
      ~canonical:(canonical_packing ?p_max_mw problem)
      [ engine "pack-greedy" (fun () -> run_pack_greedy ctx ?p_max_mw problem);
        engine "pack-exact" (fun () -> run_pack_exact ctx ?p_max_mw problem) ]
  in
  { packing = v.best;
    optimal = v.optimal;
    winner = v.winner;
    certificate = v.certificate;
    incumbents = v.incumbents;
    nodes = ctx.nodes;
    lower_bound = ctx.lb;
    elapsed_s = v.elapsed_s }
