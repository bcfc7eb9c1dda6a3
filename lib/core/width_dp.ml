type outcome = { widths : int array; test_time : int }

let solve problem ~assignment =
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  let w = Problem.total_width problem in
  if Array.length assignment <> n then
    invalid_arg "Width_dp.solve: assignment length mismatch";
  Array.iter
    (fun b ->
      if b < 0 || b >= nb then
        invalid_arg "Width_dp.solve: assignment outside bus range")
    assignment;
  (* load.(j).(k-1): bus j's sequential time at width k. *)
  let load =
    Array.init nb (fun j ->
        Array.init w (fun k ->
            let acc = ref 0 in
            for i = 0 to n - 1 do
              if assignment.(i) = j then
                acc := !acc + Problem.time problem ~core:i ~width:(k + 1)
            done;
            !acc))
  in
  (* best.(j).(r): minimal makespan of buses j.. given r wires remain;
     choice.(j).(r): the width taken by bus j in that optimum. Imperative
     tables, filled bottom-up from the last bus. *)
  let best = Array.make_matrix (nb + 1) (w + 1) max_int in
  let choice = Array.make_matrix nb (w + 1) 0 in
  for r = 0 to w do
    best.(nb).(r) <- (if r = 0 then 0 else max_int)
  done;
  for j = nb - 1 downto 0 do
    for r = nb - j to w do
      (* Bus j takes wj wires, leaving at least one per later bus. *)
      let later = nb - j - 1 in
      for wj = 1 to r - later do
        let rest = best.(j + 1).(r - wj) in
        if rest < max_int then begin
          let value = max load.(j).(wj - 1) rest in
          if value < best.(j).(r) then begin
            best.(j).(r) <- value;
            choice.(j).(r) <- wj
          end
        end
      done
    done
  done;
  assert (best.(0).(w) < max_int);
  let widths = Array.make nb 0 in
  let remaining = ref w in
  for j = 0 to nb - 1 do
    widths.(j) <- choice.(j).(!remaining);
    remaining := !remaining - widths.(j)
  done;
  assert (!remaining = 0);
  { widths; test_time = best.(0).(w) }

let alternate problem ~start =
  let rec loop rounds arch current =
    if rounds = 0 then Some (arch, current)
    else begin
      let { widths; test_time = _ } =
        solve problem ~assignment:arch.Architecture.assignment
      in
      match Dp_assign.solve problem ~widths with
      | None -> None
      | Some { Dp_assign.assignment; test_time = t_a } ->
          (* When [start] is constraint-feasible both steps are exact
             sub-problem solves, so the makespan never increases; the
             guard also terminates gracefully for infeasible starts. *)
          if t_a >= current then Some (arch, current)
          else loop (rounds - 1) (Architecture.make ~widths ~assignment) t_a
    end
  in
  loop 16 start (Cost.test_time problem start)
