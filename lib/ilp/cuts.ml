let normalize_edges pairs =
  pairs
  |> List.filter_map (fun (a, b) ->
         if a = b then None else Some (min a b, max a b))
  |> List.sort_uniq compare

let edge_cover_cliques ~n pairs =
  let edges = List.filter (fun (a, b) -> a < n && b < n) (normalize_edges pairs) in
  let adj = Array.make_matrix n n false in
  List.iter
    (fun (a, b) ->
      adj.(a).(b) <- true;
      adj.(b).(a) <- true)
    edges;
  (* Grow [a; b] into a maximal clique, scanning vertices in ascending
     order and keeping any adjacent to every current member. *)
  let grow a b =
    let members = ref [ a; b ] in
    for v = 0 to n - 1 do
      if v <> a && v <> b && List.for_all (fun u -> adj.(u).(v)) !members
      then members := v :: !members
    done;
    List.sort compare !members
  in
  let covered = Hashtbl.create 16 in
  let cover_clique clique =
    let rec mark = function
      | [] -> ()
      | u :: rest ->
          List.iter (fun v -> Hashtbl.replace covered (u, v) ()) rest;
          mark rest
    in
    mark clique
  in
  List.filter_map
    (fun (a, b) ->
      if Hashtbl.mem covered (a, b) then None
      else begin
        let clique = grow a b in
        cover_clique clique;
        Some clique
      end)
    edges
