module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

type t = { die : float * float; rects : Geom.rect array }

(* Margin kept around every core, in millimetres. *)
let spacing_mm = 0.5

(* Shelf packing: sort cores by decreasing height, fill rows left to
   right up to the row-width cap, stack rows bottom to top. Sorting is on
   (height, name) so the result is deterministic. The cap makes the die
   roughly square. *)
let place soc =
  let n = Soc.num_cores soc in
  let order = Array.init n Fun.id in
  let height i = snd (Soc.core soc i).Core_def.dim_mm in
  let name i = (Soc.core soc i).Core_def.name in
  Array.sort
    (fun a b ->
      match compare (height b) (height a) with
      | 0 -> compare (name a) (name b)
      | c -> c)
    order;
  let total_area = Soc.total_area_mm2 soc in
  let widest =
    Array.fold_left
      (fun acc i -> Float.max acc (fst (Soc.core soc i).Core_def.dim_mm))
      0.0 (Array.init n Fun.id)
  in
  let cap =
    Float.max (Float.sqrt total_area *. 1.8) (widest +. (2.0 *. spacing_mm))
  in
  let rects = Array.make n { Geom.ll = { x = 0.; y = 0. }; w = 0.; h = 0. } in
  let cursor_x = ref spacing_mm in
  let cursor_y = ref spacing_mm in
  let row_h = ref 0.0 in
  let max_x = ref 0.0 in
  let put i =
    let w, h = (Soc.core soc i).Core_def.dim_mm in
    if !cursor_x +. w +. spacing_mm > cap && !cursor_x > spacing_mm then begin
      (* Start a new row. *)
      cursor_x := spacing_mm;
      cursor_y := !cursor_y +. !row_h +. spacing_mm;
      row_h := 0.0
    end;
    rects.(i) <- { Geom.ll = { x = !cursor_x; y = !cursor_y }; w; h };
    cursor_x := !cursor_x +. w +. spacing_mm;
    row_h := Float.max !row_h h;
    max_x := Float.max !max_x !cursor_x
  in
  Array.iter put order;
  let die = (!max_x, !cursor_y +. !row_h +. spacing_mm) in
  { die; rects }

let die_mm fp = fp.die
let position fp i = Geom.center fp.rects.(i)
let num_cores fp = Array.length fp.rects

let distance fp i j = Geom.manhattan (position fp i) (position fp j)

let validate fp =
  let n = num_cores fp in
  let dw, dh = fp.die in
  let outer = { Geom.x = dw; y = dh } in
  let error = ref None in
  for i = 0 to n - 1 do
    if not (Geom.inside ~outer fp.rects.(i)) then
      if !error = None then
        error := Some (Printf.sprintf "core %d outside die" i);
    for j = i + 1 to n - 1 do
      if Geom.overlap fp.rects.(i) fp.rects.(j) then
        if !error = None then
          error := Some (Printf.sprintf "cores %d and %d overlap" i j)
    done
  done;
  match !error with None -> Ok () | Some msg -> Error msg

let sketch fp soc =
  let columns = 72 in
  let dw, dh = fp.die in
  let rows = max 8 (int_of_float (float_of_int columns *. dh /. dw /. 2.2)) in
  let grid = Array.make_matrix rows columns ' ' in
  let n = num_cores fp in
  for i = 0 to n - 1 do
    let r = fp.rects.(i) in
    let cx0 = int_of_float (r.Geom.ll.x /. dw *. float_of_int columns) in
    let cx1 =
      int_of_float ((r.Geom.ll.x +. r.Geom.w) /. dw *. float_of_int columns)
    in
    let cy0 = int_of_float (r.Geom.ll.y /. dh *. float_of_int rows) in
    let cy1 =
      int_of_float ((r.Geom.ll.y +. r.Geom.h) /. dh *. float_of_int rows)
    in
    for y = max 0 cy0 to min (rows - 1) cy1 do
      for x = max 0 cx0 to min (columns - 1) cx1 do
        grid.(y).(x) <- '.'
      done
    done;
    let label = (Soc.core soc i).Core_def.name in
    let ly = min (rows - 1) ((cy0 + cy1) / 2) in
    let lx = max 0 (min (columns - String.length label) cx0) in
    String.iteri
      (fun k c -> if lx + k < columns then grid.(ly).(lx + k) <- c)
      label
  done;
  let buf = Buffer.create ((rows + 2) * (columns + 3)) in
  Buffer.add_string buf (String.make (columns + 2) '-');
  Buffer.add_char buf '\n';
  for y = rows - 1 downto 0 do
    Buffer.add_char buf '|';
    Array.iter (Buffer.add_char buf) grid.(y);
    Buffer.add_string buf "|\n"
  done;
  Buffer.add_string buf (String.make (columns + 2) '-');
  Buffer.contents buf
