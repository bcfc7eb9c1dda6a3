type scan_kind =
  | Combinational
  | Scan of { flip_flops : int; chains : int }

type t = {
  name : string;
  inputs : int;
  outputs : int;
  scan : scan_kind;
  patterns : int;
  power_mw : float;
  dim_mm : float * float;
}

let make ~name ~inputs ~outputs ~scan ~patterns ~power_mw ~dim_mm =
  if inputs < 0 || outputs < 0 then
    invalid_arg "Core_def.make: negative terminal count";
  if patterns < 1 then invalid_arg "Core_def.make: patterns < 1";
  if power_mw < 0.0 then invalid_arg "Core_def.make: negative power";
  let w, h = dim_mm in
  if w <= 0.0 || h <= 0.0 then
    invalid_arg "Core_def.make: non-positive footprint";
  (match scan with
  | Combinational -> ()
  | Scan { flip_flops; chains } ->
      if flip_flops < 1 then
        invalid_arg "Core_def.make: scan core without flip-flops";
      if chains < 1 || chains > flip_flops then
        invalid_arg "Core_def.make: chains outside [1, flip_flops]");
  { name; inputs; outputs; scan; patterns; power_mw; dim_mm }

let flip_flops core =
  match core.scan with
  | Combinational -> 0
  | Scan { flip_flops; _ } -> flip_flops

let chains core =
  match core.scan with Combinational -> 0 | Scan { chains; _ } -> chains

let longest_chain core =
  match core.scan with
  | Combinational -> 0
  | Scan { flip_flops; chains } -> (flip_flops + chains - 1) / chains

let area_mm2 core =
  let w, h = core.dim_mm in
  w *. h
