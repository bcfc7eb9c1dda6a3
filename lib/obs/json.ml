type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

let escape buf s =
  Buffer.add_char buf '"';
  (* Most strings (keys, names, digests) need no escaping: copy them in
     one piece. *)
  if String.exists (fun c -> c = '"' || c = '\\' || c < ' ') s then
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s
  else Buffer.add_string buf s;
  Buffer.add_char buf '"'

(* Integral values below 1e15 print as integers. [string_of_int] gives
   the digits [%.0f] would, at a fraction of the cost; only negative
   zero, which [int_of_float] loses, is spelled out. *)
let add_num buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf
      (if x = 0.0 && Float.sign_bit x then "-0"
       else string_of_int (int_of_float x))
  else if Float.is_finite x then
    Buffer.add_string buf (Printf.sprintf "%.12g" x)
  else Buffer.add_string buf "null" (* JSON has no inf/nan *)

let rec emit ~indent ~level buf json =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match json with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> escape buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          emit ~indent ~level:(level + 1) buf item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          emit ~indent ~level:(level + 1) buf v)
        fields;
      nl level;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 256 in
  emit ~indent:false ~level:0 buf json;
  Buffer.contents buf

let to_string_pretty json =
  let buf = Buffer.create 1024 in
  emit ~indent:true ~level:0 buf json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                (* Exactly four hex digits: [int_of_string] would also
                   take underscores. *)
                let code = ref 0 in
                for k = 1 to 4 do
                  let d =
                    match s.[!pos + k] with
                    | '0' .. '9' as c -> Char.code c - Char.code '0'
                    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                    | _ -> fail "bad \\u escape"
                  in
                  code := (!code lsl 4) lor d
                done;
                let code = !code in
                (* Encode the code point as UTF-8 (surrogate pairs are
                   passed through as-is; trace content is ASCII). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape %C" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  (* Strict JSON number grammar: optional minus, then "0" or a
     nonzero-led digit run, optional ".digits", optional exponent.
     [float_of_string] alone is too permissive — it accepts "+5", ".5",
     "5.", "01" and hex floats, so a malformed NDJSON token would be
     silently folded into a number instead of rejected. *)
  let valid_number tok =
    let m = String.length tok in
    let i = ref 0 in
    let digits () =
      let d = !i in
      while !i < m && (match tok.[!i] with '0' .. '9' -> true | _ -> false) do
        incr i
      done;
      !i > d
    in
    let ok = ref true in
    if !i < m && tok.[!i] = '-' then incr i;
    (* Integer part: a lone 0, or a nonzero-led digit run. *)
    (if !i < m && tok.[!i] = '0' then incr i
     else if not (digits ()) then ok := false);
    if !ok && !i < m && tok.[!i] = '.' then begin
      incr i;
      if not (digits ()) then ok := false
    end;
    if !ok && !i < m && (tok.[!i] = 'e' || tok.[!i] = 'E') then begin
      incr i;
      if !i < m && (tok.[!i] = '+' || tok.[!i] = '-') then incr i;
      if not (digits ()) then ok := false
    end;
    !ok && !i = m
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if not (valid_number tok) then fail "bad number";
    match float_of_string_opt tok with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (key, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
