module Table = Soctam_report.Table

let test_render_basic () =
  let s =
    Table.render ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check string) "header" "name   value" header;
      Alcotest.(check string) "rule" "-----  -----" rule
  | _ -> Alcotest.fail "expected at least two lines");
  Alcotest.(check int) "line count (incl. trailing)" 5 (List.length lines)

let test_right_alignment () =
  let s =
    Table.render ~headers:[ "k"; "v" ] [ [ "x"; "5" ]; [ "y"; "123" ] ]
  in
  Alcotest.(check bool) "value right-aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "x    5") lines)

let test_short_rows_padded () =
  let s = Table.render ~headers:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_aligns_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Table.render: aligns length mismatch") (fun () ->
      ignore (Table.render ~aligns:[ Table.Left ] ~headers:[ "a"; "b" ] []))

let test_formatters () =
  Alcotest.(check string) "int" "1234567" (Table.fmt_int 1234567);
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1416"
    (Table.fmt_float ~decimals:4 3.14159)

let suite =
  [ Alcotest.test_case "render basic" `Quick test_render_basic;
    Alcotest.test_case "right alignment" `Quick test_right_alignment;
    Alcotest.test_case "short rows padded" `Quick test_short_rows_padded;
    Alcotest.test_case "aligns validation" `Quick test_aligns_validation;
    Alcotest.test_case "formatters" `Quick test_formatters ]
