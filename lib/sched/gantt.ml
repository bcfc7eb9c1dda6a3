module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Cost = Soctam_core.Cost
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

(* Chart width in characters. *)
let columns = 72

let render problem sched =
  let soc = Problem.soc problem in
  let makespan = max 1 sched.Schedule.makespan in
  let nb =
    1 + List.fold_left (fun acc e -> max acc e.Schedule.bus) 0
          sched.Schedule.entries
  in
  let scale cycle = cycle * columns / makespan in
  let buf = Buffer.create 1024 in
  for bus = 0 to nb - 1 do
    let row = Bytes.make columns ' ' in
    List.iter
      (fun e ->
        if e.Schedule.bus = bus then begin
          let a = scale e.Schedule.start
          and b = max (scale e.Schedule.start + 1) (scale e.Schedule.finish) in
          let mark = Char.chr (Char.code 'a' + (e.Schedule.core mod 26)) in
          for x = a to min (columns - 1) (b - 1) do
            Bytes.set row x mark
          done;
          let label = (Soc.core soc e.Schedule.core).Core_def.name in
          if String.length label + 2 <= b - a then
            String.iteri
              (fun k c ->
                if a + 1 + k < columns then Bytes.set row (a + 1 + k) c)
              label
        end)
      sched.Schedule.entries;
    Buffer.add_string buf (Printf.sprintf "bus%-2d |%s|\n" bus
                             (Bytes.to_string row))
  done;
  Buffer.add_string buf
    (Printf.sprintf "       0%s%d cycles\n"
       (String.make (max 1 (columns - String.length (string_of_int makespan)))
          ' ')
       makespan);
  Buffer.contents buf

let render_profile ?(rows = 10) profile =
  match profile with
  | [] -> "(empty profile)\n"
  | steps ->
      let t_end =
        List.fold_left (fun acc s -> max acc s.Profile.to_cycle) 1 steps
      in
      let peak = Float.max 1e-9 (Profile.peak steps) in
      let level_at col =
        (* Cycle at the column's midpoint. *)
        let cycle = (col * t_end / columns) + (t_end / (2 * columns)) in
        let matching =
          List.find_opt
            (fun s ->
              cycle >= s.Profile.from_cycle && cycle < s.Profile.to_cycle)
            steps
        in
        match matching with Some s -> s.Profile.power_mw | None -> 0.0
      in
      let heights =
        Array.init columns (fun col ->
            int_of_float
              (Float.round (level_at col /. peak *. float_of_int rows)))
      in
      let buf = Buffer.create 1024 in
      for r = rows downto 1 do
        Buffer.add_string buf
          (if r = rows then Printf.sprintf "%8.0f |" peak
           else "         |");
        Array.iter
          (fun h -> Buffer.add_char buf (if h >= r then '#' else ' '))
          heights;
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf "       0 +";
      Buffer.add_string buf (String.make columns '-');
      Buffer.add_string buf (Printf.sprintf " %d cycles\n" t_end);
      Buffer.contents buf
