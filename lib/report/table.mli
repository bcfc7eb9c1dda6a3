(** Plain-text table rendering for the benchmark harness. *)

type align = Left | Right

(** [render ?aligns ~headers rows] lays the table out with padded
    columns, a header separator and one trailing newline. Default
    alignment is [Left] for the first column and [Right] elsewhere;
    [aligns], when given, must have one entry per column. Rows shorter
    than the header are padded with empty cells. Raises
    [Invalid_argument] when [aligns] has the wrong length. *)
val render : ?aligns:align list -> headers:string list -> string list list -> string

(** [fmt_int n] renders an integer with thousands separators
    (e.g. ["1_234_567"] as "1234567" is hard to scan). *)
val fmt_int : int -> string

(** [fmt_float ?decimals x] renders a float with fixed decimals
    (default 2). *)
val fmt_float : ?decimals:int -> float -> string
