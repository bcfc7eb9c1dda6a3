module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture

type placement = {
  core : int;
  width : int;
  wire_lo : int;
  start : int;
  finish : int;
}

type t = { placements : placement list; makespan : int }

let lower_bound problem =
  let n = Problem.num_cores problem in
  let w = Problem.total_width problem in
  let area = ref 0 in
  let single = ref 0 in
  for i = 0 to n - 1 do
    (* The cheapest area any width achieves for core i. *)
    let best_area = ref max_int in
    let best_time = ref max_int in
    for k = 1 to w do
      let t = Problem.time problem ~core:i ~width:k in
      best_area := min !best_area (k * t);
      best_time := min !best_time t
    done;
    area := !area + !best_area;
    single := max !single !best_time
  done;
  max !single ((!area + w - 1) / w)

let of_architecture problem arch =
  let nb = Architecture.num_buses arch in
  let offsets = Array.make nb 0 in
  for j = 1 to nb - 1 do
    offsets.(j) <- offsets.(j - 1) + arch.Architecture.widths.(j - 1)
  done;
  let placements = ref [] in
  let makespan = ref 0 in
  for bus = 0 to nb - 1 do
    let width = arch.Architecture.widths.(bus) in
    let clock = ref 0 in
    List.iter
      (fun core ->
        let d = Problem.time problem ~core ~width in
        placements :=
          { core; width; wire_lo = offsets.(bus); start = !clock;
            finish = !clock + d }
          :: !placements;
        clock := !clock + d)
      (Architecture.bus_members arch ~bus);
    makespan := max !makespan !clock
  done;
  { placements = List.rev !placements; makespan = !makespan }

(* Skyline packer: [free.(x)] is the first cycle at which wire [x] is
   idle. A rectangle of width [w] starting no earlier than [floor_time]
   goes to the wire offset minimizing its start. *)
let place_skyline free ~width ~floor_time =
  let total = Array.length free in
  let best_x = ref 0 in
  let best_start = ref max_int in
  for x = 0 to total - width do
    let start = ref floor_time in
    for k = x to x + width - 1 do
      start := max !start free.(k)
    done;
    if !start < !best_start then begin
      best_start := !start;
      best_x := x
    end
  done;
  (!best_x, !best_start)

let co_partners problem =
  let n = Problem.num_cores problem in
  let partners = Array.make n [] in
  List.iter
    (fun (a, b) ->
      partners.(a) <- b :: partners.(a);
      partners.(b) <- a :: partners.(b))
    (Problem.constraints problem).Problem.co_pairs;
  partners

let validate problem sched =
  let n = Problem.num_cores problem in
  let w = Problem.total_width problem in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let seen = Array.make n 0 in
  List.iter (fun p -> seen.(p.core) <- seen.(p.core) + 1) sched.placements;
  if Array.exists (fun c -> c <> 1) seen then
    fail "every core must be placed exactly once"
  else begin
    let bad =
      List.find_opt
        (fun p ->
          p.width < 1 || p.wire_lo < 0
          || p.wire_lo + p.width > w
          || p.finish - p.start <> Problem.time problem ~core:p.core ~width:p.width)
        sched.placements
    in
    match bad with
    | Some p -> fail "placement of core %d is malformed" p.core
    | None ->
        let overlap p q =
          p.start < q.finish && q.start < p.finish
          && p.wire_lo < q.wire_lo + q.width
          && q.wire_lo < p.wire_lo + p.width
        in
        let clash =
          List.exists
            (fun p ->
              List.exists (fun q -> p != q && overlap p q) sched.placements)
            sched.placements
        in
        if clash then fail "rectangles overlap in wire x time space"
        else begin
          let find core =
            List.find (fun p -> p.core = core) sched.placements
          in
          let co_violation =
            List.find_opt
              (fun (a, b) ->
                let pa = find a and pb = find b in
                pa.start < pb.finish && pb.start < pa.finish)
              (Problem.constraints problem).Problem.co_pairs
          in
          match co_violation with
          | Some (a, b) -> fail "co-pair (%d, %d) overlaps in time" a b
          | None ->
              let latest =
                List.fold_left (fun acc p -> max acc p.finish) 0
                  sched.placements
              in
              if latest <> sched.makespan then
                fail "makespan %d differs from latest finish %d"
                  sched.makespan latest
              else Ok ()
        end
  end
