module Problem = Soctam_core.Problem
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

(* Chart width in characters. *)
let columns = 72

let render problem (sched : Rect_sched.t) =
  let soc = Problem.soc problem in
  let makespan = max 1 sched.makespan in
  let scale cycle = cycle * columns / makespan in
  let rows =
    List.sort_uniq compare
      (List.map (fun (p : Rect_sched.placement) -> p.wire_lo) sched.placements)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun wire ->
      let row = Bytes.make columns ' ' in
      List.iter
        (fun (p : Rect_sched.placement) ->
          if p.wire_lo = wire then begin
            let a = scale p.start
            and b = max (scale p.start + 1) (scale p.finish) in
            let mark = Char.chr (Char.code 'a' + (p.core mod 26)) in
            for x = a to min (columns - 1) (b - 1) do
              Bytes.set row x mark
            done;
            let label = (Soc.core soc p.core).Core_def.name in
            if String.length label + 2 <= b - a then
              String.iteri
                (fun k c ->
                  if a + 1 + k < columns then Bytes.set row (a + 1 + k) c)
                label
          end)
        sched.placements;
      Buffer.add_string buf
        (Printf.sprintf "w%-4d |%s|\n" wire (Bytes.to_string row)))
    rows;
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
