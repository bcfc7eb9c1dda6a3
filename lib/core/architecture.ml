type t = { widths : int array; assignment : int array }

let make ~widths ~assignment =
  let nb = Array.length widths in
  if nb = 0 then invalid_arg "Architecture.make: no buses";
  Array.iter
    (fun w -> if w < 1 then invalid_arg "Architecture.make: width < 1")
    widths;
  Array.iter
    (fun b ->
      if b < 0 || b >= nb then
        invalid_arg "Architecture.make: assignment outside bus range")
    assignment;
  { widths = Array.copy widths; assignment = Array.copy assignment }

let num_buses arch = Array.length arch.widths
let num_cores arch = Array.length arch.assignment
let total_width arch = Array.fold_left ( + ) 0 arch.widths

let bus_members arch ~bus =
  let acc = ref [] in
  for i = Array.length arch.assignment - 1 downto 0 do
    if arch.assignment.(i) = bus then acc := i :: !acc
  done;
  !acc

let canonicalize arch =
  let nb = num_buses arch in
  let key b =
    let members = bus_members arch ~bus:b in
    let first = match members with [] -> max_int | i :: _ -> i in
    (-arch.widths.(b), first)
  in
  let order = Array.init nb Fun.id in
  Array.sort (fun a b -> compare (key a) (key b)) order;
  let rank = Array.make nb 0 in
  Array.iteri (fun new_idx old_idx -> rank.(old_idx) <- new_idx) order;
  make
    ~widths:(Array.init nb (fun j -> arch.widths.(order.(j))))
    ~assignment:(Array.map (fun b -> rank.(b)) arch.assignment)

let equivalent a b =
  num_buses a = num_buses b
  && num_cores a = num_cores b
  &&
  let ca = canonicalize a and cb = canonicalize b in
  ca.widths = cb.widths && ca.assignment = cb.assignment
