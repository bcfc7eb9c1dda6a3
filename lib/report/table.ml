type align = Left | Right

let pad align width cell =
  let gap = width - String.length cell in
  if gap <= 0 then cell
  else
    match align with
    | Left -> cell ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ cell

let render ?aligns ~headers rows =
  let ncols = List.length headers in
  let aligns =
    match aligns with
    | None -> List.init ncols (fun c -> if c = 0 then Left else Right)
    | Some a ->
        if List.length a <> ncols then
          invalid_arg "Table.render: aligns length mismatch";
        a
  in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row
    else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun c h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row c)))
          (String.length h) rows)
      headers
  in
  let buf = Buffer.create 1024 in
  let emit_row cells =
    let padded =
      List.map2
        (fun (w, a) cell -> pad a w cell)
        (List.combine widths aligns)
        cells
    in
    Buffer.add_string buf (String.concat "  " padded);
    (* Trim trailing spaces for tidy output. *)
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let trimmed =
      let n = String.length s in
      let rec last k = if k > 0 && s.[k - 1] = ' ' then last (k - 1) else k in
      String.sub s 0 (last n)
    in
    Buffer.add_string buf trimmed;
    Buffer.add_char buf '\n'
  in
  let out = Buffer.create 2048 in
  emit_row headers;
  Buffer.add_buffer out buf;
  Buffer.clear buf;
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  Buffer.add_string out rule;
  Buffer.add_char out '\n';
  List.iter
    (fun row ->
      emit_row row;
      Buffer.add_buffer out buf;
      Buffer.clear buf)
    rows;
  Buffer.contents out

let fmt_int n = string_of_int n

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
