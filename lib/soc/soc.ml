type t = { name : string; core_arr : Core_def.t array }

let make ~name cores =
  if cores = [] then invalid_arg "Soc.make: no cores";
  let names = List.map (fun c -> c.Core_def.name) cores in
  let sorted = List.sort_uniq compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Soc.make: duplicate core names";
  { name; core_arr = Array.of_list cores }

let name soc = soc.name
let num_cores soc = Array.length soc.core_arr

let core soc i =
  if i < 0 || i >= num_cores soc then invalid_arg "Soc.core: bad index";
  soc.core_arr.(i)

let cores soc = Array.copy soc.core_arr

let equal a b = a.name = b.name && a.core_arr = b.core_arr

let index_of soc core_name =
  let n = num_cores soc in
  let rec loop i =
    if i >= n then raise Not_found
    else if soc.core_arr.(i).Core_def.name = core_name then i
    else loop (i + 1)
  in
  loop 0

let total_area_mm2 soc =
  Array.fold_left (fun acc c -> acc +. Core_def.area_mm2 c) 0.0 soc.core_arr

let fold f init soc =
  let acc = ref init in
  Array.iteri (fun i c -> acc := f !acc i c) soc.core_arr;
  !acc
