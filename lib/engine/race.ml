module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Dp_assign = Soctam_core.Dp_assign
module Ilp = Soctam_core.Ilp_formulation
module Heuristics = Soctam_core.Heuristics
module Annealing = Soctam_core.Annealing
module Rect_sched = Soctam_sched.Rect_sched
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock

type engine = Pack | Greedy | Anneal | Dp | Ilp

let engine_name = function
  | Pack -> "pack"
  | Greedy -> "greedy"
  | Anneal -> "anneal"
  | Dp -> "dp"
  | Ilp -> "ilp"

let default_engines = [ Pack; Greedy; Anneal; Dp; Ilp ]

type event = { test_time : int; engine : string; elapsed_ms : float }

type result = {
  solution : (Architecture.t * int) option;
  optimal : bool;
  winner : string option;
  certificate : string option;
  incumbents : int;
  nodes : int;
  lp_pivots : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  cuts_added : int;
  presolve_fixed : int;
  cancelled_nodes : int;
  elapsed_s : float;
}

type incumbent = {
  architecture : Architecture.t;
  best_time : int;
  source : engine;
}

(* Everything the racing engines share. The three atomics carry the
   protocol (incumbent, lower bound, certificate); [stop] and [token]
   carry cancellation; the mutex guards only cold-path aggregation of
   per-engine search statistics. *)
type ctx = {
  problem : Problem.t;
  partitions : int array array;
      (* width partitions in {!Exact.width_partitions} order, shared by
         the DP engine and the canonical re-derivation *)
  mutable dp_next : int;
      (* first partition the DP engine has not finished: set by the
         sequential probe, so the resumed DP never solves one twice *)
  start : float;
  deadline_s : float option;
  cell : incumbent option Atomic.t;
  lb : int Atomic.t;
  certificate : (engine * string) option Atomic.t;
  stop : bool Atomic.t;
  token : Pool.Cancel.token;
  published : int Atomic.t;
  on_event : event -> unit;
  stats_mutex : Mutex.t;
  mutable dp_nodes : int;
  mutable ilp_stats : Ilp.solve_stats option;
}

let should_stop ctx () =
  Atomic.get ctx.stop
  ||
  match ctx.deadline_s with
  | Some d -> Clock.now_s () > d
  | None -> false

(* First certificate wins; losers are cancelled cooperatively (stop
   flag, polled down to the simplex pivot level) and preemptively
   (queued pool tasks never start). *)
let certify ctx engine cert =
  if Atomic.compare_and_set ctx.certificate None (Some (engine, cert))
  then begin
    Obs.incr (Printf.sprintf "race.winner.%s" (engine_name engine));
    Atomic.set ctx.stop true;
    Pool.Cancel.cancel ctx.token
  end

(* Monotone max on the shared lower bound, then check whether the
   current incumbent already meets it (a bound-match certificate). *)
let rec raise_lb ctx engine bound =
  let cur = Atomic.get ctx.lb in
  if bound > cur && not (Atomic.compare_and_set ctx.lb cur bound) then
    raise_lb ctx engine bound
  else
    match Atomic.get ctx.cell with
    | Some inc when inc.best_time <= Atomic.get ctx.lb ->
        certify ctx engine "bound"
    | _ -> ()

(* Publish a feasible architecture. Strict improvement only, via CAS,
   so the cell's test time is monotone non-increasing and every
   successful publication is a genuinely improving event. *)
let rec publish ctx source architecture best_time =
  let cur = Atomic.get ctx.cell in
  match cur with
  | Some inc when inc.best_time <= best_time -> ()
  | _ ->
      if
        Atomic.compare_and_set ctx.cell cur
          (Some { architecture; best_time; source })
      then begin
        Atomic.incr ctx.published;
        Obs.incr "race.incumbent";
        Obs.incr (Printf.sprintf "race.incumbent.%s" (engine_name source));
        ctx.on_event
          { test_time = best_time;
            engine = engine_name source;
            elapsed_ms = 1000.0 *. Clock.elapsed_s ~since:ctx.start };
        if best_time <= Atomic.get ctx.lb then certify ctx source "bound"
      end
      else publish ctx source architecture best_time

let run_pack ctx =
  let bound =
    max
      (Problem.lower_bound ctx.problem)
      (Rect_sched.lower_bound ctx.problem)
  in
  (* The rectangle model is a relaxation of fixed buses (every
     architecture converts to a rectangle schedule of equal makespan),
     so its area bound is a sound lower bound here too. It must stay
     bound-only in THIS race: a packing's makespan can undercut the
     partition optimum, and publishing it into the cell would make the
     DP/ILP engines prune the true partition optimum away. The packing
     family races for real in {!solve_pack}, against its own cell. *)
  raise_lb ctx Pack bound

let run_greedy ctx =
  match
    Heuristics.solve ~should_stop:(should_stop ctx)
      ~report:(fun { Heuristics.architecture; test_time } ->
        publish ctx Greedy architecture test_time)
      ctx.problem
  with
  | Some { Heuristics.architecture; test_time } ->
      publish ctx Greedy architecture test_time
  | None -> ()

let run_anneal ctx ~iterations =
  match
    Annealing.solve ~iterations ~should_stop:(should_stop ctx)
      ~report:(fun { Annealing.architecture; test_time } ->
        publish ctx Anneal architecture test_time)
      ctx.problem
  with
  | Some { Annealing.architecture; test_time } ->
      publish ctx Anneal architecture test_time
  | None -> ()

(* The complete enumeration engine over the partitions from [from]
   on, each pruned by the freshest shared incumbent (the DP's
   [upper_bound] is exclusive — equal-valued solutions are already
   covered by the cell). Pruning with a stale (larger) bound is sound:
   it only prunes less. Finishing the last partition un-cancelled
   proves nothing beats the final incumbent, wherever it came from —
   including partitions an earlier call finished against a looser
   bound. Returns the first partition not finished: it stopped, or ran
   out of [node_budget], which spans the whole call. *)
let dp_partitions ?node_budget ctx from =
  let n = Array.length ctx.partitions in
  let nodes = ref 0 in
  let rec go i =
    if i = n || should_stop ctx () then i
    else begin
      let upper_bound =
        match Atomic.get ctx.cell with
        | Some inc -> Some inc.best_time
        | None -> None
      in
      let widths = ctx.partitions.(i) in
      let outcome, s =
        Dp_assign.solve_with_stats ?upper_bound
          ?node_budget:(Option.map (fun b -> b - !nodes) node_budget)
          ctx.problem ~widths
      in
      nodes := !nodes + s.Dp_assign.nodes;
      (match outcome with
      | Some { Dp_assign.assignment; test_time } ->
          publish ctx Dp (Architecture.make ~widths ~assignment) test_time
      | None -> ());
      if s.Dp_assign.complete then go (i + 1) else i
    end
  in
  let next = go from in
  Mutex.lock ctx.stats_mutex;
  ctx.dp_nodes <- ctx.dp_nodes + !nodes;
  Mutex.unlock ctx.stats_mutex;
  if next = n then certify ctx Dp "dp";
  next

let run_dp ctx = ignore (dp_partitions ctx ctx.dp_next)

(* Node budget of the sequential race's certify-first DP probe. The
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

let run_dp_probe ctx =
  let sp = Obs.start () in
  ctx.dp_next <- dp_partitions ~node_budget:probe_node_budget ctx 0;
  Obs.finish
    ~args:
      [ ( "closed",
          string_of_bool (ctx.dp_next = Array.length ctx.partitions) ) ]
    "race.probe" sp

(* The MILP engine races with its internal seeding off: the greedy
   engine already publishes to the cell, and the [?shared] hook folds
   the cell into the branch-and-bound's pruning threshold at every node
   entry. On an un-cancelled completion, [optimal = true] with no
   solution means "nothing strictly beats the tightest shared bound
   observed" — which certifies the cell. *)
let run_ilp ctx =
  let r =
    Ilp.solve ~seed_incumbent:false
      ~shared:(fun () ->
        match Atomic.get ctx.cell with
        | Some inc -> Some inc.best_time
        | None -> None)
      ~on_incumbent:(fun (architecture, test_time) ->
        publish ctx Ilp architecture test_time)
      ~should_stop:(should_stop ctx) ctx.problem
  in
  Mutex.lock ctx.stats_mutex;
  ctx.ilp_stats <- Some r.Ilp.stats;
  Mutex.unlock ctx.stats_mutex;
  if r.Ilp.optimal then begin
    (match r.Ilp.solution with
    | Some (architecture, test_time) ->
        publish ctx Ilp architecture test_time
    | None -> ());
    certify ctx Ilp "ilp"
  end

let run_engine ctx ~anneal_iterations e =
  let sp = Obs.start () in
  (match e with
  | Pack -> run_pack ctx
  | Greedy -> run_greedy ctx
  | Anneal -> run_anneal ctx ~iterations:anneal_iterations
  | Dp -> run_dp ctx
  | Ilp -> run_ilp ctx);
  Obs.finish ~args:[ ("engine", engine_name e) ] "race.engine" sp

(* Re-derive a canonical architecture for the certified optimum: one
   deterministic DP pass bounded just above [t_star]. This is what
   makes the race's answer a pure function of the instance — identical
   across job counts and across which engine won the wall clock. The
   pass is cheap: the bound prunes all but near-optimal assignments. *)
let canonical_architecture problem partitions t_star =
  Obs.span "race.finalize" @@ fun () ->
  let best = ref None in
  let best_time = ref (t_star + 1) in
  Array.iter
    (fun widths ->
      match Dp_assign.solve ~upper_bound:!best_time problem ~widths with
      | Some { Dp_assign.assignment; test_time } ->
          best_time := test_time;
          best := Some (Architecture.make ~widths ~assignment, test_time)
      | None -> ())
    partitions;
  !best

let solve ?pool ?deadline_s ?(engines = default_engines)
    ?(anneal_iterations = 4000) ?(on_event = fun _ -> ()) problem =
  let sp = Obs.start () in
  let ctx =
    { problem;
      partitions =
        Array.of_list
          (List.map Array.of_list
             (Exact.width_partitions ~total:(Problem.total_width problem)
                ~parts:(Problem.num_buses problem)));
      dp_next = 0;
      start = Clock.now_s ();
      deadline_s;
      cell = Atomic.make None;
      lb = Atomic.make min_int;
      certificate = Atomic.make None;
      stop = Atomic.make false;
      token = Pool.Cancel.create ();
      published = Atomic.make 0;
      on_event;
      stats_mutex = Mutex.create ();
      dp_nodes = 0;
      ilp_stats = None }
  in
  let run e = run_engine ctx ~anneal_iterations e in
  (match pool with
  | Some pool when Pool.num_domains pool > 1 ->
      ignore
        (Pool.map_cancellable pool ~token:ctx.token ~f:run
           (Array.of_list engines))
  | Some _ | None ->
      (* Certify-first: the Pack bound, then the budgeted DP probe,
         which closes most designer-loop races outright. Otherwise the
         rest run in list order, each inheriting every bound published
         before it, with DP resuming where the probe stopped; a
         certificate (or the deadline) skips whatever is left. *)
      let step e = if not (should_stop ctx ()) then run e in
      let bound, rest = List.partition (( = ) Pack) engines in
      List.iter step bound;
      if List.mem Dp rest && not (should_stop ctx ()) then run_dp_probe ctx;
      List.iter step rest);
  let ilp_stats = ctx.ilp_stats in
  let certificate = Atomic.get ctx.certificate in
  let incumbent = Atomic.get ctx.cell in
  let solution, optimal, winner, cert =
    match certificate with
    | Some (engine, cert) -> (
        match incumbent with
        | None ->
            (* A complete engine finished with an empty cell: proven
               infeasible. *)
            (None, true, Some (engine_name engine), Some cert)
        | Some inc -> (
            match
              canonical_architecture problem ctx.partitions inc.best_time
            with
            | Some (arch, t) ->
                (Some (arch, t), true, Some (engine_name engine), Some cert)
            | None ->
                (* The cell only holds feasible architectures, so the
                   bounded re-derivation cannot come up empty. *)
                assert false))
    | None -> (
        (* Deadline expired before any certificate: hand back the best
           incumbent as-is, honestly uncertified. *)
        match incumbent with
        | Some inc ->
            ( Some (inc.architecture, inc.best_time),
              false,
              Some (engine_name inc.source),
              None )
        | None -> (None, false, None, None))
  in
  let cancelled_nodes =
    match ilp_stats with
    | Some s -> s.Ilp.cancelled_nodes
    | None -> 0
  in
  if cancelled_nodes > 0 then Obs.incr ~n:cancelled_nodes "race.cancelled_nodes";
  let pick f = match ilp_stats with Some s -> f s | None -> 0 in
  let result =
    { solution;
      optimal;
      winner;
      certificate = cert;
      incumbents = Atomic.get ctx.published;
      nodes = ctx.dp_nodes + pick (fun s -> s.Ilp.bb_nodes);
      lp_pivots = pick (fun s -> s.Ilp.lp_pivots);
      warm_starts = pick (fun s -> s.Ilp.warm_starts);
      cold_solves = pick (fun s -> s.Ilp.cold_solves);
      refactorizations = pick (fun s -> s.Ilp.refactorizations);
      cuts_added = pick (fun s -> s.Ilp.cuts_added);
      presolve_fixed = pick (fun s -> s.Ilp.presolve_fixed);
      cancelled_nodes;
      elapsed_s = Clock.elapsed_s ~since:ctx.start }
  in
  Obs.finish
    ~args:
      [ ("winner", match winner with Some w -> w | None -> "none");
        ("certificate", match cert with Some c -> c | None -> "none");
        ("incumbents", string_of_int result.incumbents) ]
    "race.solve" sp;
  result

(* ------------------------------------------------------------------ *)
(* The rectangle-packing family race                                   *)
(* ------------------------------------------------------------------ *)

module Pack_solver = Soctam_pack.Pack

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

(* Same protocol as the partition race, specialised to packings: the
   cell holds the best feasible packing, the greedy portfolio seeds it
   (streaming each improvement), and the exact packer prunes against it
   and certifies on exhaustion. Kept separate from [solve]'s cell
   because the two makespans live in different models — see
   {!run_pack}. *)
type pack_ctx = {
  p_problem : Problem.t;
  p_max_mw : float option;
  p_start : float;
  p_deadline_s : float option;
  p_cell : (string * Rect_sched.t) option Atomic.t;
  p_lb : int Atomic.t;
  p_certificate : (string * string) option Atomic.t;
  p_stop : bool Atomic.t;
  p_token : Pool.Cancel.token;
  p_published : int Atomic.t;
  p_on_event : event -> unit;
  p_mutex : Mutex.t;
  mutable p_nodes : int;
}

let pack_should_stop ctx () =
  Atomic.get ctx.p_stop
  ||
  match ctx.p_deadline_s with
  | Some d -> Clock.now_s () > d
  | None -> false

let pack_certify ctx name cert =
  if Atomic.compare_and_set ctx.p_certificate None (Some (name, cert))
  then begin
    Obs.incr (Printf.sprintf "race.winner.%s" name);
    Atomic.set ctx.p_stop true;
    Pool.Cancel.cancel ctx.p_token
  end

let pack_cell_time ctx =
  match Atomic.get ctx.p_cell with
  | Some (_, (p : Rect_sched.t)) -> Some p.makespan
  | None -> None

let rec pack_publish ctx name (packing : Rect_sched.t) =
  let cur = Atomic.get ctx.p_cell in
  match cur with
  | Some (_, (inc : Rect_sched.t)) when inc.makespan <= packing.makespan -> ()
  | _ ->
      if Atomic.compare_and_set ctx.p_cell cur (Some (name, packing)) then begin
        Atomic.incr ctx.p_published;
        Obs.incr "race.incumbent";
        Obs.incr (Printf.sprintf "race.incumbent.%s" name);
        ctx.p_on_event
          { test_time = packing.makespan;
            engine = name;
            elapsed_ms = 1000.0 *. Clock.elapsed_s ~since:ctx.p_start };
        if packing.makespan <= Atomic.get ctx.p_lb then
          pack_certify ctx name "bound"
      end
      else pack_publish ctx name packing

let run_pack_greedy ctx =
  (* Raise the shared bound first so an early bound-match can end the
     race before the exact engine even starts. *)
  let bound = Pack_solver.lower_bound ?p_max_mw:ctx.p_max_mw ctx.p_problem in
  let cur = Atomic.get ctx.p_lb in
  if bound > cur then ignore (Atomic.compare_and_set ctx.p_lb cur bound);
  ignore
    (Pack_solver.greedy ?p_max_mw:ctx.p_max_mw
       ~should_stop:(pack_should_stop ctx)
       ~report:(fun packing -> pack_publish ctx "pack-greedy" packing)
       ctx.p_problem)

let run_pack_exact ctx ~node_budget =
  let r =
    Pack_solver.exact ?p_max_mw:ctx.p_max_mw ~node_budget
      ~upper_bound:(fun () -> pack_cell_time ctx)
      ~on_incumbent:(fun packing -> pack_publish ctx "pack-exact" packing)
      ~should_stop:(pack_should_stop ctx) ctx.p_problem
  in
  Mutex.lock ctx.p_mutex;
  ctx.p_nodes <- ctx.p_nodes + r.Pack_solver.nodes;
  Mutex.unlock ctx.p_mutex;
  if r.Pack_solver.optimal then pack_certify ctx "pack-exact" "exact"

(* Deterministic re-derivation, mirroring [canonical_architecture]: a
   sequential exact search bounded just above the certified makespan.
   The certified value is achievable, so the search must rediscover a
   packing at it (the node budget is a pathology guard; on a blow we
   fall back to the live incumbent, still correct, merely not
   canonical). *)
let canonical_packing ?p_max_mw ~node_budget problem t_star =
  Obs.span "race.finalize" @@ fun () ->
  let r =
    Pack_solver.exact ?p_max_mw ~node_budget
      ~upper_bound:(fun () -> Some (t_star + 1))
      problem
  in
  match r.Pack_solver.packing with
  | Some p when p.Rect_sched.makespan <= t_star -> Some p
  | _ -> None

let solve_pack ?pool ?deadline_s ?p_max_mw ?(node_budget = 2_000_000)
    ?(on_event = fun _ -> ()) problem =
  let sp = Obs.start () in
  let ctx =
    { p_problem = problem;
      p_max_mw;
      p_start = Clock.now_s ();
      p_deadline_s = deadline_s;
      p_cell = Atomic.make None;
      p_lb = Atomic.make min_int;
      p_certificate = Atomic.make None;
      p_stop = Atomic.make false;
      p_token = Pool.Cancel.create ();
      p_published = Atomic.make 0;
      p_on_event = on_event;
      p_mutex = Mutex.create ();
      p_nodes = 0 }
  in
  let engines =
    [| (fun () -> run_pack_greedy ctx);
       (fun () -> run_pack_exact ctx ~node_budget) |]
  in
  (match pool with
  | Some pool when Pool.num_domains pool > 1 ->
      ignore
        (Pool.map_cancellable pool ~token:ctx.p_token
           ~f:(fun run -> run ())
           engines)
  | Some _ | None ->
      Array.iter
        (fun run -> if not (pack_should_stop ctx ()) then run ())
        engines);
  let certificate = Atomic.get ctx.p_certificate in
  let incumbent = Atomic.get ctx.p_cell in
  let packing, optimal, winner, cert =
    match certificate with
    | Some (name, cert) -> (
        match incumbent with
        | None -> (None, true, Some name, Some cert)
        | Some (_, (inc : Rect_sched.t)) -> (
            match
              canonical_packing ?p_max_mw ~node_budget problem inc.makespan
            with
            | Some p -> (Some p, true, Some name, Some cert)
            | None -> (Some inc, true, Some name, Some cert)))
    | None -> (
        match incumbent with
        | Some (source, inc) -> (Some inc, false, Some source, None)
        | None -> (None, false, None, None))
  in
  let result =
    { packing;
      optimal;
      winner;
      certificate = cert;
      incumbents = Atomic.get ctx.p_published;
      nodes = ctx.p_nodes;
      lower_bound = Atomic.get ctx.p_lb;
      elapsed_s = Clock.elapsed_s ~since:ctx.p_start }
  in
  Obs.finish
    ~args:
      [ ("winner", match winner with Some w -> w | None -> "none");
        ("certificate", match cert with Some c -> c | None -> "none");
        ("incumbents", string_of_int result.incumbents) ]
    "race.solve_pack" sp;
  result
