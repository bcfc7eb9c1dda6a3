(** Sparse linear expressions over integer-indexed variables.

    An expression is a finite map from variable indices to float
    coefficients, plus a constant term. Expressions are immutable. *)

type t

(** The zero expression. *)
val zero : t

(** [var ?coeff v] is [coeff * x_v] (default coefficient 1.0). *)
val var : ?coeff:float -> int -> t

(** [const c] is the constant expression [c]. *)
val const : float -> t

(** [add e1 e2] is the sum of the two expressions. *)
val add : t -> t -> t

(** [sub e1 e2] is [e1 - e2]. *)
val sub : t -> t -> t

(** [scale k e] multiplies every coefficient and the constant by [k]. *)
val scale : float -> t -> t

(** [of_terms ?constant terms] builds an expression from
    [(variable, coefficient)] pairs; repeated variables accumulate. *)
val of_terms : ?constant:float -> (int * float) list -> t

(** [sum es] adds a list of expressions. *)
val sum : t list -> t

(** Constant term of the expression. *)
val constant : t -> float

(** [coeff e v] is the coefficient of variable [v] (0.0 if absent). *)
val coeff : t -> int -> float

(** [iter_terms f e] applies [f var coeff] to every nonzero term. *)
val iter_terms : (int -> float -> unit) -> t -> unit

(** [terms e] lists the nonzero [(variable, coefficient)] pairs sorted by
    variable index. *)
val terms : t -> (int * float) list

(** [eval e x] evaluates the expression at the point [x] (indexed by
    variable). Raises [Invalid_argument] if a variable index is out of
    bounds for [x]. *)
val eval : t -> float array -> float

(** Number of nonzero terms. *)
val size : t -> int
