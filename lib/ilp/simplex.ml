module Obs = Soctam_obs.Obs

type result =
  | Optimal of { point : float array; objective : float; pivots : int }
  | Infeasible
  | Unbounded
  | Iteration_limit

let price_tol = 1e-7
let pivot_tol = 1e-9
let feas_tol = 1e-7

(* Confirmation pricing tolerance. The matrix is doubly equilibrated,
   so column bound ranges can span ~2^25: a reduced cost of -3e-8 looks
   like noise under [price_tol] yet hides a large objective improvement
   once the column moves across its range. Every *certificate* (phase-1
   infeasibility, phase-2 optimality) is therefore confirmed by letting
   the primal continue at this much tighter tolerance; the pass costs
   one pricing sweep when the coarse verdict was already right. *)
let price_tol_strict = 1e-10

(* Nearest power of two: scaling by these is exact in binary floating
   point, so equilibration introduces no rounding of its own. *)
let pow2_near x =
  if x <= 0.0 || not (Float.is_finite x) then 1.0
  else Float.pow 2.0 (Float.round (Float.log2 x))

(* Nonbasic variables sit at one of their bounds; the byte per column
   records which side (or that the column is basic). *)
let st_basic = '\000'
let st_lower = '\001'
let st_upper = '\002'

(* LU pivots and Forrest-Tomlin spike diagonals below this are treated
   as singular: the update (or factorization) is abandoned and the
   basis refactorized from pristine columns instead. *)
let lu_tol = 1e-11

(* Forrest-Tomlin updates applied since the last refactorization before
   the basis is refactorized from scratch. Bounds eta accumulation (and
   with it drift and per-solve memory) between factorizations. *)
let refactor_period = 64

module Incremental = struct
  type basis = { sb : int array; sstat : Bytes.t }

  (* Stands for "no live snapshot": [basis] never returns it. *)
  let no_snapshot = { sb = [||]; sstat = Bytes.empty }

  (* Revised bounded-variable simplex over the equality form A x + s = b
     with one slack per row (Le: s in [0,inf), Ge: s in (-inf,0], Eq:
     s = 0) and one artificial slot per row for cold phase-1 starts.
     Variable bounds are handled natively, so the system has exactly one
     row per model constraint — no explicit upper-bound rows.

     Unlike the dense-tableau predecessor, no B^-1 A is maintained.
     The constraint matrix is stored once as sparse scaled columns, and
     the basis is carried as an LU factorization (PB = LU, partial
     pivoting) refreshed by Forrest-Tomlin updates and refactorized
     every [refactor_period] basis changes. Each pricing pass recomputes
     reduced costs from scratch (one BTRAN of the basic costs), so cost
     drift cannot accumulate across the thousands of node solves of a
     branch-and-bound run.

     Sparsity: U is stored densely, but L is kept as per-column lists
     of its nonzero multipliers, the triangular solves sum only over
     the positions whose computed value is nonzero, and the eliminations
     walk only the pivot row's nonzero columns. Every skipped term has
     an exact 0.0 factor and the remaining terms keep the dense loops'
     order, so each nonzero result is bit-for-bit the dense one (at
     most the sign of an exact zero differs, which no comparison, ratio
     or division in the solver reads). Pivots therefore do not depend
     on the sparsity handling at all.

     All data lives in the doubly-equilibrated space: structural column
     [v] stores coefficients scaled by [cscale.(v)] (so the scaled
     variable is x_v / cscale_v), and each row is scaled by a power of
     two of its own. Both scales are powers of two, hence exact.

     Position frame: the Forrest-Tomlin cyclic shift renumbers basis
     positions, so [basis_arr], [xb] and [dse] shift in lockstep with
     the factorization. Everything indexed "by row" in solves is in the
     current position frame; only the sparse columns, [b0] and
     [art_sign] stay in original row coordinates. *)
  type t = {
    model : Model.t;
    nstruct : int;
    m : int;
    ncols : int;
    slack_base : int;
    art_base : int;
    col_idx : int array array;
        (** Per structural column: rows with nonzero coefficients. *)
    col_val : float array array;  (** Matching scaled coefficients. *)
    b0 : float array;  (** Pristine scaled right-hand sides. *)
    cscale : float array;
    cost : float array;  (** Scaled minimization costs (ncols, 0 beyond). *)
    lb0 : float array;  (** Scaled model bounds per column. *)
    ub0 : float array;
    rhs_norm : float;
    max_pivots : int;
    art_sign : float array;
        (** Artificial column for row r is [art_sign.(r) * e_r], chosen
            at cold start so the artificial enters at a nonnegative
            value. *)
    obj_coeffs : float array;  (** Costs of the phase in progress. *)
    lb : float array;  (** Current bounds = model bounds + overrides. *)
    ub : float array;
    vstat : Bytes.t;
    basis_arr : int array;  (** Basic variable per position. *)
    xb : float array;  (** Value of the basic variable per position. *)
    dse : float array;
        (** Steepest-edge reference weights per position (dual
            pricing); reset to 1 on cold starts and restores. *)
    lu : float array array;  (** Elimination workspace of [refactorize]. *)
    umat : float array array;
        (** Current (FT-updated) upper factor. Only the diagonal and the
            part right of it are meaningful: nothing reads the entries
            left of the diagonal. *)
    perm : int array;  (** Row permutation of the factorization. *)
    l_start : int array;
        (** L of the last refactorization by columns (unit diagonal
            implied): column k's nonzero multipliers sit at
            [l_start.(k) .. l_start.(k + 1) - 1] of [l_row]/[l_val],
            rows ascending. *)
    mutable l_row : int array;
    mutable l_val : float array;
    upd_pos : int array;
        (** Per FT update since refactorization: the basis position
            replaced, in the position frame current when the update was
            made. *)
    eta_len : int array;
    eta_idx : int array array;
    eta_val : float array array;
        (** Per update slot: the row-eta multipliers (column, value;
            [eta_len] of them, columns ascending) that
            re-triangularized the last row after the cyclic shift. A
            slot's arrays are sized on its first use and reused. *)
    mutable nupd : int;
    mutable factorized : bool;
    mutable live : basis;
        (** The snapshot [basis] last returned, while no solve has run
            since (the live basis and factorization are still its own);
            [no_snapshot] otherwise. *)
    mutable refactors : int;
    mutable warm : int;
    mutable cold : int;
    mutable reuses : int;
    mutable pivots : int;  (** Pivots spent in the solve in progress. *)
    (* Scratch vectors, all of length [max 1 m]. *)
    v_y : float array;  (** BTRAN of the basic costs (pricing). *)
    v_rho : float array;  (** BTRAN of a position unit vector. *)
    v_tau : float array;  (** FTRAN of [v_rho] (steepest-edge update). *)
    v_alpha : float array;  (** FTRAN of the entering column. *)
    v_spike : float array;  (** Entering column after L and updates. *)
    scr : float array;
    scr_row : float array;
    nz : int array;
        (** Nonzero positions found by a triangular solve; the pivot
            row's nonzero columns during [refactorize]. *)
    nz_row : int array;
        (** [refactorize]: rows with a nonzero in the pivot column,
            then the final position of each original row. *)
  }

  let warm_starts t = t.warm
  let cold_solves t = t.cold
  let refactorizations t = t.refactors
  let reuses t = t.reuses

  let create ?(max_pivots = 200_000) model =
    let nstruct = Model.num_vars model in
    let constrs = Model.constrs model in
    let m = Array.length constrs in
    let slack_base = nstruct in
    let art_base = nstruct + m in
    let ncols = nstruct + (2 * m) in
    (* Column equilibration: structural column v is scaled by cscale_v. *)
    let cscale = Array.make (max 1 nstruct) 1.0 in
    let cmax = Array.make (max 1 nstruct) 0.0 in
    Array.iter
      (fun c ->
        Lin_expr.iter_terms
          (fun v coef -> cmax.(v) <- Float.max cmax.(v) (Float.abs coef))
          c.Model.expr)
      constrs;
    for v = 0 to nstruct - 1 do
      if cmax.(v) > 0.0 then cscale.(v) <- 1.0 /. pow2_near cmax.(v)
    done;
    let b0 = Array.make (max 1 m) 0.0 in
    let lb0 = Array.make ncols 0.0 and ub0 = Array.make ncols 0.0 in
    for v = 0 to nstruct - 1 do
      let info = Model.var_info model v in
      (* Scaled variable is x / cscale; cscale is a positive power of
         two, so the bound transform is exact and order-preserving. *)
      lb0.(v) <- info.Model.lb /. cscale.(v);
      ub0.(v) <- info.Model.ub /. cscale.(v)
    done;
    (* Row equilibration from the sparse terms: row [r] is scaled by a
       power of two near its largest column-scaled entry, and entry
       [(coef *. cscale.(v)) *. rscale.(r)] goes to column [v] when it
       is nonzero. [ccount] sizes the columns for the fill below. *)
    let rscale = Array.make (max 1 m) 1.0 in
    let ccount = Array.make (max 1 nstruct) 0 in
    Array.iteri
      (fun r c ->
        let rmax = ref 0.0 in
        Lin_expr.iter_terms
          (fun v coef ->
            rmax := Float.max !rmax (Float.abs (coef *. cscale.(v))))
          c.Model.expr;
        let scale = 1.0 /. pow2_near !rmax in
        rscale.(r) <- scale;
        Lin_expr.iter_terms
          (fun v coef ->
            if coef *. cscale.(v) *. scale <> 0.0 then
              ccount.(v) <- ccount.(v) + 1)
          c.Model.expr;
        b0.(r) <- c.Model.rhs *. scale;
        let s = slack_base + r in
        match c.Model.sense with
        | Model.Le ->
            lb0.(s) <- 0.0;
            ub0.(s) <- infinity
        | Model.Ge ->
            lb0.(s) <- neg_infinity;
            ub0.(s) <- 0.0
        | Model.Eq ->
            lb0.(s) <- 0.0;
            ub0.(s) <- 0.0)
      constrs;
    (* Artificials stay fixed at zero; a cold phase 1 opens the ones it
       needs and closes them again. *)
    for a = art_base to ncols - 1 do
      lb0.(a) <- 0.0;
      ub0.(a) <- 0.0
    done;
    (* Filled row by row, so each column lists its rows ascending. *)
    let col_idx = Array.map (fun k -> Array.make k 0) ccount in
    let col_val = Array.map (fun k -> Array.make k 0.0) ccount in
    let filled = Array.make (max 1 nstruct) 0 in
    Array.iteri
      (fun r c ->
        Lin_expr.iter_terms
          (fun v coef ->
            let a = coef *. cscale.(v) *. rscale.(r) in
            if a <> 0.0 then begin
              let k = filled.(v) in
              col_idx.(v).(k) <- r;
              col_val.(v).(k) <- a;
              filled.(v) <- k + 1
            end)
          c.Model.expr)
      constrs;
    let cost = Array.make (max 1 ncols) 0.0 in
    let direction, obj_expr = Model.objective model in
    let sign =
      match direction with Model.Minimize -> 1.0 | Model.Maximize -> -1.0
    in
    Lin_expr.iter_terms
      (fun v c -> cost.(v) <- cost.(v) +. (sign *. c *. cscale.(v)))
      obj_expr;
    let rhs_norm =
      Array.fold_left (fun acc b -> Float.max acc (Float.abs b)) 1.0 b0
    in
    { model;
      nstruct;
      m;
      ncols;
      slack_base;
      art_base;
      col_idx;
      col_val;
      b0;
      cscale;
      cost;
      lb0;
      ub0;
      rhs_norm;
      max_pivots;
      art_sign = Array.make (max 1 m) 1.0;
      obj_coeffs = Array.make (max 1 ncols) 0.0;
      lb = Array.make (max 1 ncols) 0.0;
      ub = Array.make (max 1 ncols) 0.0;
      vstat = Bytes.make (max 1 ncols) st_lower;
      basis_arr = Array.make (max 1 m) (-1);
      xb = Array.make (max 1 m) 0.0;
      dse = Array.make (max 1 m) 1.0;
      lu = Array.init (max 1 m) (fun _ -> Array.make (max 1 m) 0.0);
      umat = Array.init (max 1 m) (fun _ -> Array.make (max 1 m) 0.0);
      perm = Array.init (max 1 m) Fun.id;
      l_start = Array.make (m + 1) 0;
      l_row = Array.make (max 1 m) 0;
      l_val = Array.make (max 1 m) 0.0;
      upd_pos = Array.make refactor_period 0;
      eta_len = Array.make refactor_period 0;
      eta_idx = Array.make refactor_period [||];
      eta_val = Array.make refactor_period [||];
      nupd = 0;
      factorized = false;
      live = no_snapshot;
      refactors = 0;
      warm = 0;
      cold = 0;
      reuses = 0;
      pivots = 0;
      v_y = Array.make (max 1 m) 0.0;
      v_rho = Array.make (max 1 m) 0.0;
      v_tau = Array.make (max 1 m) 0.0;
      v_alpha = Array.make (max 1 m) 0.0;
      v_spike = Array.make (max 1 m) 0.0;
      scr = Array.make (max 1 m) 0.0;
      scr_row = Array.make (max 1 m) 0.0;
      nz = Array.make (max 1 m) 0;
      nz_row = Array.make (max 1 m) 0 }

  let val_of t j = if Bytes.get t.vstat j = st_upper then t.ub.(j) else t.lb.(j)

  (* Unchecked access, for the node-LP kernels [add_col], [dot_col],
     [ltran], [utran] and [btran] only. Every index they use is either
     a loop counter below [t.m], or a value from an array the handle
     fills itself with positions below [t.m] ([col_idx], [perm],
     [l_row], [nz], [eta_idx]), or an entry bound read from [l_start],
     which the L store ([l_row], [l_val]) bounds. The handle's scratch
     vectors, [umat] rows and eta slots hold at least [t.m] entries,
     and each kernel asserts on entry that its vector argument does
     too. [.%()] is for float arrays, [.!()] for int arrays: each is
     monomorphic, so float reads stay unboxed. Pure moves (the
     Forrest-Tomlin shifts) use [Array.blit] instead. *)
  let ( .%() ) (a : float array) i = Array.unsafe_get a i
  let ( .%()<- ) (a : float array) i (x : float) = Array.unsafe_set a i x
  let ( .!() ) (a : int array) i = Array.unsafe_get a i
  let ( .!()<- ) (a : int array) i (x : int) = Array.unsafe_set a i x

  (* Column scatter v := v + s * a_j: structural columns from the
     sparse store, slack j a unit vector, artificial j a signed unit
     vector. *)
  let add_col t j s v =
    assert (Array.length v >= t.m);
    if j < t.nstruct then begin
      let idx = t.col_idx.(j) and vl = t.col_val.(j) in
      for k = 0 to Array.length idx - 1 do
        let r = idx.!(k) in
        v.%(r) <- v.%(r) +. (s *. vl.%(k))
      done
    end
    else if j < t.art_base then begin
      let r = j - t.slack_base in
      v.(r) <- v.(r) +. s
    end
    else begin
      let r = j - t.art_base in
      v.(r) <- v.(r) +. (s *. t.art_sign.(r))
    end

  let dot_col t j y =
    assert (Array.length y >= t.m);
    if j < t.nstruct then begin
      let idx = t.col_idx.(j) and vl = t.col_val.(j) in
      let acc = ref 0.0 in
      for k = 0 to Array.length idx - 1 do
        acc := !acc +. (vl.%(k) *. y.%(idx.!(k)))
      done;
      !acc
    end
    else if j < t.art_base then y.(j - t.slack_base)
    else t.art_sign.(j - t.art_base) *. y.(j - t.art_base)

  (* Append multiplier [l] at row [i] as L entry number [p], growing
     the column store when it is full. *)
  let push_l t p i l =
    if p = Array.length t.l_row then begin
      let cap = 2 * p in
      let rows = Array.make cap 0 and vals = Array.make cap 0.0 in
      Array.blit t.l_row 0 rows 0 p;
      Array.blit t.l_val 0 vals 0 p;
      t.l_row <- rows;
      t.l_val <- vals
    end;
    t.l_row.(p) <- i;
    t.l_val.(p) <- l

  (* Refactorize the basis from pristine columns: LU with partial
     pivoting, PB = LU. Ties in the pivot search go to the lowest row,
     so the factorization (and every solve through it) is deterministic.
     Each elimination step visits only the rows with a nonzero in the
     pivot column and, in them, only the pivot row's nonzero columns.
     Returns [false] on a singular basis ([factorized] cleared). *)
  let refactorize t =
    t.refactors <- t.refactors + 1;
    Obs.incr "simplex.refactorize";
    t.nupd <- 0;
    let m = t.m in
    let w = t.lu in
    for i = 0 to m - 1 do
      Array.fill w.(i) 0 m 0.0
    done;
    for p = 0 to m - 1 do
      let j = t.basis_arr.(p) in
      if j < t.nstruct then begin
        let idx = t.col_idx.(j) and vl = t.col_val.(j) in
        for k = 0 to Array.length idx - 1 do
          w.(idx.(k)).(p) <- vl.(k)
        done
      end
      else if j < t.art_base then w.(j - t.slack_base).(p) <- 1.0
      else w.(j - t.art_base).(p) <- t.art_sign.(j - t.art_base)
    done;
    for i = 0 to m - 1 do
      t.perm.(i) <- i
    done;
    let rows = t.nz_row and cols = t.nz in
    (* L multipliers are recorded as they are made, tagged with their
       row's original index: later row swaps move them, so their final
       positions are known only once the elimination is done. *)
    let nnz = ref 0 in
    let ok = ref true in
    (try
       for k = 0 to m - 1 do
         t.l_start.(k) <- !nnz;
         let best = ref (Float.abs w.(k).(k)) in
         let bi = ref k in
         let nrows = ref 0 in
         for i = k + 1 to m - 1 do
           let x = w.(i).(k) in
           if x <> 0.0 then begin
             rows.(!nrows) <- i;
             incr nrows;
             let a = Float.abs x in
             if a > !best then begin
               best := a;
               bi := i
             end
           end
         done;
         if !best < lu_tol then begin
           ok := false;
           raise Exit
         end;
         if !bi <> k then begin
           let tmp = w.(k) in
           w.(k) <- w.(!bi);
           w.(!bi) <- tmp;
           let tp = t.perm.(k) in
           t.perm.(k) <- t.perm.(!bi);
           t.perm.(!bi) <- tp
         end;
         let wk = w.(k) in
         let piv = wk.(k) in
         let ncols = ref 0 in
         for j = k + 1 to m - 1 do
           if wk.(j) <> 0.0 then begin
             cols.(!ncols) <- j;
             incr ncols
           end
         done;
         (* After the swap, row [bi] holds the old row [k], whose entry
            may be zero: hence the re-test. *)
         for q = 0 to !nrows - 1 do
           let i = rows.(q) in
           let wi = w.(i) in
           let a = wi.(k) in
           if a <> 0.0 then begin
             let f = a /. piv in
             wi.(k) <- f;
             if f <> 0.0 then begin
               push_l t !nnz t.perm.(i) f;
               incr nnz;
               for c = 0 to !ncols - 1 do
                 let j = cols.(c) in
                 wi.(j) <- wi.(j) -. (f *. wk.(j))
               done
             end
           end
         done
       done
     with Exit -> ());
    if !ok then begin
      t.l_start.(m) <- !nnz;
      for i = 0 to m - 1 do
        Array.blit w.(i) i t.umat.(i) i (m - i)
      done;
      (* Final positions of the recorded multipliers; each column's
         entries are then sorted by row (insertion sort: columns hold a
         handful of entries). *)
      let pos = t.nz_row in
      for i = 0 to m - 1 do
        pos.(t.perm.(i)) <- i
      done;
      let lr = t.l_row and lv = t.l_val in
      for k = 0 to m - 1 do
        let lo = t.l_start.(k) in
        for p = lo to t.l_start.(k + 1) - 1 do
          let i = pos.(lr.(p)) and l = lv.(p) in
          let q = ref (p - 1) in
          while !q >= lo && lr.(!q) > i do
            lr.(!q + 1) <- lr.(!q);
            lv.(!q + 1) <- lv.(!q);
            decr q
          done;
          lr.(!q + 1) <- i;
          lv.(!q + 1) <- l
        done
      done;
      t.factorized <- true
    end
    else t.factorized <- false;
    !ok

  (* FTRAN, first leg: v := (updates o L^-1 P) v. The result is the
     Forrest-Tomlin "spike" of the column held in [v]; a U back-solve
     turns it into B^-1 v. *)
  let ltran t v =
    let m = t.m in
    assert (Array.length v >= m);
    let scr = t.scr and perm = t.perm in
    for i = 0 to m - 1 do
      scr.%(i) <- v.%(perm.!(i))
    done;
    Array.blit scr 0 v 0 m;
    let ls = t.l_start and lr = t.l_row and lv = t.l_val in
    for k = 0 to m - 1 do
      let vk = v.%(k) in
      if vk <> 0.0 then
        for p = ls.!(k) to ls.!(k + 1) - 1 do
          let i = lr.!(p) in
          v.%(i) <- v.%(i) -. (lv.%(p) *. vk)
        done
    done;
    for u = 0 to t.nupd - 1 do
      let r = t.upd_pos.(u) in
      let save = v.(r) in
      Array.blit v (r + 1) v r (m - 1 - r);
      let idx = t.eta_idx.(u) and mu = t.eta_val.(u) in
      let acc = ref save in
      for e = 0 to t.eta_len.(u) - 1 do
        acc := !acc -. (mu.%(e) *. v.%(idx.!(e)))
      done;
      v.(m - 1) <- !acc
    done

  (* FTRAN, second leg: back-substitution on the updated upper factor,
     summing over the already-solved positions whose value is nonzero
     ([nz] lists them, found in descending order, read ascending). *)
  let utran t v =
    assert (Array.length v >= t.m);
    let u = t.umat and nz = t.nz in
    let cnt = ref 0 in
    for k = t.m - 1 downto 0 do
      let row = u.(k) in
      let acc = ref v.%(k) in
      for q = !cnt - 1 downto 0 do
        let j = nz.!(q) in
        acc := !acc -. (row.%(j) *. v.%(j))
      done;
      let x = !acc /. row.%(k) in
      v.%(k) <- x;
      if x <> 0.0 then begin
        nz.!(!cnt) <- k;
        incr cnt
      end
    done

  (* BTRAN: v := B^-T v, the exact transpose of the FTRAN pipeline run
     backwards (U^T forward-solve over the nonzero solved positions,
     updates reversed, L^T back-solve, inverse permutation). Input is in
     the current position frame, output in original row coordinates —
     ready for [dot_col]. *)
  let btran t v =
    let m = t.m in
    assert (Array.length v >= m);
    let u = t.umat and nz = t.nz in
    let cnt = ref 0 in
    for k = 0 to m - 1 do
      let acc = ref v.%(k) in
      for q = 0 to !cnt - 1 do
        let j = nz.!(q) in
        acc := !acc -. (u.(j).%(k) *. v.%(j))
      done;
      let x = !acc /. u.(k).%(k) in
      v.%(k) <- x;
      if x <> 0.0 then begin
        nz.!(!cnt) <- k;
        incr cnt
      end
    done;
    for ui = t.nupd - 1 downto 0 do
      let r = t.upd_pos.(ui) in
      let vm = v.%(m - 1) in
      if vm <> 0.0 then begin
        let idx = t.eta_idx.(ui) and mu = t.eta_val.(ui) in
        for e = 0 to t.eta_len.(ui) - 1 do
          let j = idx.!(e) in
          v.%(j) <- v.%(j) -. (mu.%(e) *. vm)
        done
      end;
      Array.blit v r v (r + 1) (m - 1 - r);
      v.(r) <- vm
    done;
    let ls = t.l_start and lr = t.l_row and lv = t.l_val in
    for k = m - 2 downto 0 do
      let acc = ref v.%(k) in
      for p = ls.!(k) to ls.!(k + 1) - 1 do
        acc := !acc -. (lv.%(p) *. v.%(lr.!(p)))
      done;
      v.%(k) <- !acc
    done;
    let scr = t.scr and perm = t.perm in
    for i = 0 to m - 1 do
      scr.%(perm.!(i)) <- v.%(i)
    done;
    Array.blit scr 0 v 0 m

  (* FTRAN of column [j]: leaves the spike in [v_spike] (for a possible
     Forrest-Tomlin update) and B^-1 a_j in [v_alpha]. *)
  let ftran_col t j =
    Array.fill t.v_spike 0 (max 1 t.m) 0.0;
    add_col t j 1.0 t.v_spike;
    ltran t t.v_spike;
    Array.blit t.v_spike 0 t.v_alpha 0 t.m;
    utran t t.v_alpha

  (* BTRAN of the position-[r] unit vector into [v_rho] (a row of
     B^-1 in original coordinates: alpha_rj = dot_col j v_rho). *)
  let btran_e t r =
    Array.fill t.v_rho 0 (max 1 t.m) 0.0;
    t.v_rho.(r) <- 1.0;
    btran t t.v_rho

  (* BTRAN of the basic costs into [v_y]; the reduced cost of column j
     is then obj_coeffs.(j) - dot_col j v_y. Recomputed from scratch at
     every pricing pass, so there is no cost row to drift. Usually no
     basic column carries a cost: then y = B^-T 0 is the zero vector
     already in place, and the solve is skipped. *)
  let btran_obj t =
    let costed = ref false in
    for i = 0 to t.m - 1 do
      let c = t.obj_coeffs.(t.basis_arr.(i)) in
      t.v_y.(i) <- c;
      if c <> 0.0 then costed := true
    done;
    if !costed then btran t t.v_y

  (* Forrest-Tomlin update for position [r] replaced by the column whose
     spike is in [spike]: cyclic shift of rows/columns r..m-1 of U (the
     shifted row goes last), spike becomes the last column, and the last
     row is re-triangularized with row etas recorded in the next update
     slot. Returns [false] when a pivot is too small — U may then be
     half-updated, and the caller must refactorize. *)
  let ft_update t ~pos:r ~spike =
    let m = t.m in
    let u = t.umat in
    let shifted = m - 1 - r in
    Array.blit u.(r) (r + 1) t.scr_row (r + 1) shifted;
    for i = 0 to r - 1 do
      let row = u.(i) in
      Array.blit row (r + 1) row r shifted;
      row.(m - 1) <- spike.(i)
    done;
    for i = r to m - 2 do
      Array.blit u.(i + 1) (r + 1) u.(i) r shifted;
      u.(i).(m - 1) <- spike.(i + 1)
    done;
    let last = u.(m - 1) in
    Array.blit t.scr_row (r + 1) last r shifted;
    last.(m - 1) <- spike.(r);
    let slot = t.nupd in
    if Array.length t.eta_idx.(slot) = 0 then begin
      t.eta_idx.(slot) <- Array.make m 0;
      t.eta_val.(slot) <- Array.make m 0.0
    end;
    let idx = t.eta_idx.(slot) and etas = t.eta_val.(slot) in
    let cnt = ref 0 in
    let ok = ref true in
    (try
       for j = r to m - 2 do
         let v = last.(j) in
         if Float.abs v > lu_tol then begin
           let d = u.(j).(j) in
           if Float.abs d < lu_tol then begin
             ok := false;
             raise Exit
           end;
           let mu = v /. d in
           idx.(!cnt) <- j;
           etas.(!cnt) <- mu;
           incr cnt;
           last.(j) <- 0.0;
           let uj = u.(j) in
           for jj = j + 1 to m - 1 do
             last.(jj) <- last.(jj) -. (mu *. uj.(jj))
           done
         end
         else last.(j) <- 0.0
       done
     with Exit -> ());
    if !ok && Float.abs last.(m - 1) > lu_tol then begin
      t.upd_pos.(slot) <- r;
      t.eta_len.(slot) <- !cnt;
      t.nupd <- slot + 1;
      true
    end
    else false

  (* The FT cyclic shift renumbers basis positions; keep the
     position-indexed state in the same frame as the factorization. *)
  let shift_pos t r =
    let m = t.m in
    if r < m - 1 then begin
      let b = t.basis_arr.(r) and x = t.xb.(r) and g = t.dse.(r) in
      for i = r to m - 2 do
        t.basis_arr.(i) <- t.basis_arr.(i + 1);
        t.xb.(i) <- t.xb.(i + 1);
        t.dse.(i) <- t.dse.(i + 1)
      done;
      t.basis_arr.(m - 1) <- b;
      t.xb.(m - 1) <- x;
      t.dse.(m - 1) <- g
    end

  (* Commit the basis change at position [r] to entering column [j].
     The caller has already updated [xb], [dse] and [vstat]; [v_spike]
     still holds the entering column's spike. A full update budget or a
     failed FT update falls back to refactorization; [false] means even
     that found the basis singular and the solve must bail out. *)
  let change_basis t ~row:r ~col:j =
    t.basis_arr.(r) <- j;
    if t.nupd < refactor_period && ft_update t ~pos:r ~spike:t.v_spike then begin
      shift_pos t r;
      true
    end
    else refactorize t

  (* Basic values from scratch through the current factors:
     xb = B^-1 (b - N x_N). *)
  let recompute_xb t =
    let v = t.v_spike in
    Array.blit t.b0 0 v 0 t.m;
    for j = 0 to t.ncols - 1 do
      if Bytes.get t.vstat j <> st_basic then begin
        let x = val_of t j in
        if x <> 0.0 then add_col t j (-.x) v
      end
    done;
    ltran t v;
    utran t v;
    Array.blit v 0 t.xb 0 t.m

  (* Refactorize the basis from pristine columns and recompute its basic
     values through the fresh factors, so neither the factors nor [xb]
     carry anything from Forrest-Tomlin updates. Run before trusting a
     verdict that read them. [false] on a singular basis. *)
  let refresh t =
    refactorize t
    && begin
         recompute_xb t;
         true
       end

  type phase_outcome = Phase_done | Phase_unbounded | Phase_iter_limit

  (* Objective of the phase in progress, recomputed from current values
     (no incremental tracking to drift). Used for stall detection. *)
  let recompute_obj t =
    let acc = ref 0.0 in
    for j = 0 to t.ncols - 1 do
      if Bytes.get t.vstat j <> st_basic then begin
        let c = t.obj_coeffs.(j) in
        if c <> 0.0 then acc := !acc +. (c *. val_of t j)
      end
    done;
    for r = 0 to t.m - 1 do
      let c = t.obj_coeffs.(t.basis_arr.(r)) in
      if c <> 0.0 then acc := !acc +. (c *. t.xb.(r))
    done;
    !acc

  (* Primal bounded-variable simplex on the current phase costs. An
     entering variable either pivots into the basis or — when its own
     opposite bound is the tighter limit — flips there without a basis
     change. Dantzig pricing with a switch to Bland's rule on stalls. *)
  let primal t ~price_tol ~fix_leaving_artificial =
    let stall_limit = 200 in
    let stall = ref 0 in
    let last_obj = ref (recompute_obj t) in
    let outcome = ref None in
    while !outcome = None do
      if t.pivots > t.max_pivots || not t.factorized then
        outcome := Some Phase_iter_limit
      else begin
        let bland = !stall > stall_limit in
        btran_obj t;
        let col = ref (-1) in
        let best = ref (-.price_tol) in
        (try
           for j = 0 to t.ncols - 1 do
             let st = Bytes.get t.vstat j in
             if st <> st_basic && t.ub.(j) > t.lb.(j) then begin
               let d = t.obj_coeffs.(j) -. dot_col t j t.v_y in
               let e = if st = st_lower then d else -.d in
               if e < -.price_tol then
                 if bland then begin
                   col := j;
                   raise Exit
                 end
                 else if e < !best then begin
                   best := e;
                   col := j
                 end
             end
           done
         with Exit -> ());
        if !col < 0 then outcome := Some Phase_done
        else begin
          let j = !col in
          let at_lower = Bytes.get t.vstat j = st_lower in
          let dir = if at_lower then 1.0 else -1.0 in
          ftran_col t j;
          (* Ratio test: smallest step at which a basic variable hits one
             of its own bounds; ties broken by the smallest basic index. *)
          let leave = ref (-1) in
          let leave_to = ref st_lower in
          let row_ratio = ref infinity in
          for r = 0 to t.m - 1 do
            let alpha = t.v_alpha.(r) in
            let dxb = -.(alpha *. dir) in
            if Float.abs dxb > pivot_tol then begin
              let b = t.basis_arr.(r) in
              let cap = if dxb > 0.0 then t.ub.(b) else t.lb.(b) in
              if Float.is_finite cap then begin
                let ratio =
                  Float.max 0.0
                    (if dxb > 0.0 then (cap -. t.xb.(r)) /. dxb
                     else (t.xb.(r) -. cap) /. -.dxb)
                in
                if
                  ratio < !row_ratio -. pivot_tol
                  || (Float.abs (ratio -. !row_ratio) <= pivot_tol
                     && !leave >= 0
                     && b < t.basis_arr.(!leave))
                then begin
                  row_ratio := ratio;
                  leave := r;
                  leave_to := (if dxb > 0.0 then st_upper else st_lower)
                end
              end
            end
          done;
          let flip_limit = t.ub.(j) -. t.lb.(j) in
          if !leave < 0 && not (Float.is_finite flip_limit) then
            outcome := Some Phase_unbounded
          else if !leave < 0 || flip_limit < !row_ratio -. pivot_tol then begin
            (* Bound flip: strictly improving, no basis change. *)
            let delta = dir *. flip_limit in
            for r = 0 to t.m - 1 do
              let a = t.v_alpha.(r) in
              if a <> 0.0 then t.xb.(r) <- t.xb.(r) -. (a *. delta)
            done;
            Bytes.set t.vstat j (if at_lower then st_upper else st_lower);
            t.pivots <- t.pivots + 1
          end
          else begin
            let r = !leave in
            let delta = dir *. !row_ratio in
            let newv = val_of t j +. delta in
            for s = 0 to t.m - 1 do
              if s <> r then begin
                let a = t.v_alpha.(s) in
                if a <> 0.0 then t.xb.(s) <- t.xb.(s) -. (a *. delta)
              end
            done;
            let i = t.basis_arr.(r) in
            Bytes.set t.vstat i !leave_to;
            Bytes.set t.vstat j st_basic;
            t.xb.(r) <- newv;
            t.dse.(r) <- 1.0;
            if not (change_basis t ~row:r ~col:j) then
              outcome := Some Phase_iter_limit;
            t.pivots <- t.pivots + 1;
            if fix_leaving_artificial && i >= t.art_base then t.ub.(i) <- 0.0
          end;
          if !outcome = None then begin
            let ov = recompute_obj t in
            if ov < !last_obj -. 1e-10 then begin
              stall := 0;
              last_obj := ov
            end
            else incr stall
          end
        end
      end
    done;
    match !outcome with Some o -> o | None -> assert false

  (* Install current bounds (model bounds + overrides) in scaled space.
     Returns [false] when an override makes some variable's box empty. *)
  let install_bounds t overrides =
    Array.blit t.lb0 0 t.lb 0 t.ncols;
    Array.blit t.ub0 0 t.ub 0 t.ncols;
    List.iter
      (fun (v, l, u) ->
        t.lb.(v) <- Float.max t.lb.(v) (l /. t.cscale.(v));
        t.ub.(v) <- Float.min t.ub.(v) (u /. t.cscale.(v)))
      overrides;
    let ok = ref true in
    for v = 0 to t.nstruct - 1 do
      if t.lb.(v) > t.ub.(v) +. feas_tol then ok := false
    done;
    !ok

  let extract t =
    let point = Array.make t.nstruct 0.0 in
    for v = 0 to t.nstruct - 1 do
      if Bytes.get t.vstat v <> st_basic then point.(v) <- val_of t v
    done;
    for r = 0 to t.m - 1 do
      let b = t.basis_arr.(r) in
      if b < t.nstruct then point.(b) <- t.xb.(r)
    done;
    for v = 0 to t.nstruct - 1 do
      point.(v) <- point.(v) *. t.cscale.(v)
    done;
    let _, expr = Model.objective t.model in
    Optimal { point; objective = Lin_expr.eval expr point; pivots = t.pivots }

  (* Cold start: every nonbasic at a finite bound, a slack-or-artificial
     basis, fresh factorization (trivially diagonal). Returns [true]
     when any artificial had to be opened (phase 1 required). *)
  let reset_cold t =
    for j = 0 to t.ncols - 1 do
      Bytes.set t.vstat j
        (if Float.is_finite t.lb.(j) then st_lower else st_upper)
    done;
    let rho = t.v_rho in
    Array.blit t.b0 0 rho 0 t.m;
    for v = 0 to t.nstruct - 1 do
      let x = val_of t v in
      if x <> 0.0 then add_col t v (-.x) rho
    done;
    let nart = ref 0 in
    for r = 0 to t.m - 1 do
      let s = t.slack_base + r in
      if rho.(r) >= t.lb.(s) && rho.(r) <= t.ub.(s) then begin
        t.basis_arr.(r) <- s;
        Bytes.set t.vstat s st_basic;
        t.xb.(r) <- rho.(r)
      end
      else begin
        (* The slack stays pinned at zero (its nearest bound in every
           sense); a signed artificial covers the residual, entering at
           value |rho|. *)
        let a = t.art_base + r in
        t.art_sign.(r) <- (if rho.(r) < 0.0 then -1.0 else 1.0);
        t.basis_arr.(r) <- a;
        Bytes.set t.vstat a st_basic;
        t.ub.(a) <- infinity;
        t.xb.(r) <- Float.abs rho.(r);
        incr nart
      end;
      t.dse.(r) <- 1.0
    done;
    ignore (refactorize t);
    !nart > 0

  type cold_outcome = Cold_feasible | Cold_infeasible | Cold_iter

  (* Sum of the artificials still basic: the phase-1 objective value
     computed from current state. *)
  let artificial_residue t =
    let acc = ref 0.0 in
    for r = 0 to t.m - 1 do
      if t.basis_arr.(r) >= t.art_base then
        acc := !acc +. Float.max 0.0 t.xb.(r)
    done;
    !acc

  (* Phase 1: minimize the sum of the opened artificials. *)
  let phase1 t =
    Obs.incr "simplex.phase1";
    Array.fill t.obj_coeffs 0 t.ncols 0.0;
    for a = t.art_base to t.ncols - 1 do
      if t.ub.(a) > 0.0 then t.obj_coeffs.(a) <- 1.0
    done;
    let outcome =
      match primal t ~price_tol ~fix_leaving_artificial:true with
      | Phase_done when artificial_residue t > feas_tol *. t.rhs_norm ->
          (* About to certify infeasibility: confirm at the strict
             tolerance first, or a badly scaled improving column the
             coarse pricing skipped turns a feasible node infeasible. *)
          Obs.incr "simplex.phase1_confirm";
          primal t ~price_tol:price_tol_strict ~fix_leaving_artificial:true
      | o -> o
    in
    match outcome with
    | Phase_iter_limit -> Cold_iter
    | Phase_unbounded ->
        (* A sum of nonnegative artificials is bounded below by zero. *)
        assert false
    | Phase_done ->
        let residue = artificial_residue t in
        for a = t.art_base to t.ncols - 1 do
          t.ub.(a) <- 0.0
        done;
        if residue > feas_tol *. t.rhs_norm then Cold_infeasible
        else begin
          (* Drive any artificial still basic (at value 0) out with a
             degenerate pivot; a row with no eligible column is
             redundant and keeps its artificial basic at zero. The
             variables are collected first: basis positions shift with
             each FT update, so each one is located again when its turn
             comes. *)
          let arts = ref [] in
          for r = 0 to t.m - 1 do
            if t.basis_arr.(r) >= t.art_base then
              arts := t.basis_arr.(r) :: !arts
          done;
          let ok = ref true in
          List.iter
            (fun a ->
              if !ok then begin
                let pos = ref (-1) in
                for s = 0 to t.m - 1 do
                  if t.basis_arr.(s) = a then pos := s
                done;
                if !pos >= 0 then begin
                  let r = !pos in
                  btran_e t r;
                  let found = ref (-1) in
                  let j = ref 0 in
                  while !found < 0 && !j < t.art_base do
                    if
                      Bytes.get t.vstat !j <> st_basic
                      && Float.abs (dot_col t !j t.v_rho) > 1e-7
                    then found := !j;
                    incr j
                  done;
                  if !found >= 0 then begin
                    let jj = !found in
                    let newv = val_of t jj in
                    Bytes.set t.vstat a st_lower;
                    Bytes.set t.vstat jj st_basic;
                    t.xb.(r) <- newv;
                    t.dse.(r) <- 1.0;
                    ftran_col t jj;
                    if change_basis t ~row:r ~col:jj then
                      t.pivots <- t.pivots + 1
                    else ok := false
                  end
                end
              end)
            (List.rev !arts);
          if !ok then Cold_feasible else Cold_iter
        end

  (* Per-variable feasibility slack. Equilibrated columns can carry
     bounds ~2^25, so a slack fully relative to the bound
     (feas_tol * |bound|) would accept O(1) violations as "feasible" —
     and a later degenerate pivot that snaps such a basic to its bound
     silently shifts the solution by the whole violation. Grow the
     slack only mildly with the bound's magnitude instead. *)
  let bound_slack bnd = feas_tol *. (1.0 +. (1e-4 *. Float.abs bnd))

  (* Worst bound violation among basic variables beyond the per-variable
     slack: the O(m) audit run before any basis is trusted. *)
  let worst_basic_violation t =
    let worst = ref 0.0 in
    for r = 0 to t.m - 1 do
      let i = t.basis_arr.(r) in
      let v = t.xb.(r) in
      let lo = t.lb.(i) and hi = t.ub.(i) in
      let d_lo =
        if Float.is_finite lo then lo -. v -. bound_slack lo else 0.0
      in
      let d_hi =
        if Float.is_finite hi then v -. hi -. bound_slack hi else 0.0
      in
      let d = Float.max d_lo d_hi in
      if d > !worst then worst := d
    done;
    !worst

  (* The audit before a basis is trusted. A failure can be drift in
     [xb] rather than a bad basis: refresh from pristine data and audit
     once more before giving the basis up. *)
  let audit t =
    worst_basic_violation t <= 0.0
    || begin
         Obs.incr "simplex.refresh";
         let ok = refresh t && worst_basic_violation t <= 0.0 in
         if ok then Obs.incr "simplex.refresh_saved";
         ok
       end

  (* Phase 2 on the model costs (installed by the caller): coarse
     pricing first, then the strict confirmation pass before the point
     is certified optimal — a prematurely stopped phase 2 overstates the
     LP bound, and branch & bound prunes the true optimum with it. *)
  let phase2 t =
    Obs.incr "simplex.phase2";
    match primal t ~price_tol ~fix_leaving_artificial:false with
    | Phase_done ->
        primal t ~price_tol:price_tol_strict ~fix_leaving_artificial:false
    | o -> o

  let cold_solve t =
    t.cold <- t.cold + 1;
    Obs.incr "simplex.cold";
    let need_phase1 = reset_cold t in
    let p1 = if need_phase1 then phase1 t else Cold_feasible in
    match p1 with
    | Cold_infeasible -> Infeasible
    | Cold_iter -> Iteration_limit
    | Cold_feasible -> (
        Array.blit t.cost 0 t.obj_coeffs 0 t.ncols;
        match phase2 t with
        | Phase_done ->
            if audit t then extract t
            else begin
              (* A pristine rebuild should never end infeasible-at-the-
                 basis; if it does, a safe partial verdict beats a
                 corrupt "optimal". *)
              Obs.incr "simplex.cold_audit_fail";
              Iteration_limit
            end
        | Phase_unbounded -> Unbounded
        | Phase_iter_limit -> Iteration_limit)

  (* Re-home nonbasics whose side is no longer finite under the
     installed bounds (a relaxed override can reopen an upper bound to
     infinity), then start the dual afresh: unit steepest-edge weights
     and the model costs. *)
  let prepare_warm t =
    for j = 0 to t.ncols - 1 do
      let st = Bytes.get t.vstat j in
      if st = st_upper && not (Float.is_finite t.ub.(j)) then
        Bytes.set t.vstat j st_lower
      else if st = st_lower && not (Float.is_finite t.lb.(j)) then
        Bytes.set t.vstat j st_upper
    done;
    Array.fill t.dse 0 (max 1 t.m) 1.0;
    Array.blit t.cost 0 t.obj_coeffs 0 t.ncols

  (* Restore a snapshot basis by refactorizing its columns from pristine
     data — no pivoting from the current basis, no drift carried over,
     so a warm restore is as trustworthy as a cold rebuild. Returns
     [false] (caller goes cold) on a singular snapshot basis. *)
  let restore t snap =
    if Array.length snap.sb <> t.m then false
    else begin
      Array.blit snap.sb 0 t.basis_arr 0 t.m;
      Bytes.blit snap.sstat 0 t.vstat 0 t.ncols;
      prepare_warm t;
      refresh t
    end

  (* Warm start from the live basis, which is still the snapshot's: the
     factors stay, and only the basic values are recomputed through
     them, since the new bounds can move nonbasic columns. Whatever
     drift the factors carry, every verdict is refreshed before it is
     trusted (the dual's infeasibility exit, the audits). *)
  let reuse t =
    t.reuses <- t.reuses + 1;
    Obs.incr "simplex.reuse";
    prepare_warm t;
    recompute_xb t

  type dual_outcome = Dual_feasible | Dual_infeasible | Dual_give_up | Dual_iter

  (* Dual simplex: the snapshot basis is dual feasible (it was optimal
     for the parent), and a bound override only perturbs primal
     feasibility — reoptimize by driving bound-violating basics out.
     Leaving rows are picked by dual steepest edge (largest
     violation^2 / reference weight, Forrest-Goldfarb weight updates),
     which converges in far fewer pivots than largest-violation on the
     clique-cut-strengthened relaxations. *)
  let dual t =
    let cap = 200 + (4 * t.m) in
    let steps = ref 0 in
    let res = ref None in
    (* Whether this call refreshed at a dead end, and whether it met one
       again after that. *)
    let refreshed = ref false and stuck = ref false in
    while !res = None do
      if t.pivots > t.max_pivots then res := Some Dual_iter
      else if !steps > cap || not t.factorized then res := Some Dual_give_up
      else begin
        let row = ref (-1) in
        let best_score = ref 0.0 in
        let row_viol = ref 0.0 in
        let exit_up = ref false in
        for r = 0 to t.m - 1 do
          let i = t.basis_arr.(r) in
          let v = t.xb.(r) in
          let lo = t.lb.(i) and hi = t.ub.(i) in
          let viol_lo =
            if v < lo && lo -. v > bound_slack lo then lo -. v else 0.0
          in
          let viol_hi =
            if v > hi && v -. hi > bound_slack hi then v -. hi else 0.0
          in
          let viol = Float.max viol_lo viol_hi in
          if viol > 0.0 then begin
            let score = viol *. viol /. Float.max t.dse.(r) 1e-12 in
            if score > !best_score then begin
              best_score := score;
              row_viol := viol;
              row := r;
              exit_up := viol_hi > viol_lo
            end
          end
        done;
        if !row < 0 then res := Some Dual_feasible
        else begin
          let r = !row in
          btran_e t r;
          btran_obj t;
          (* Entering column: minimum dual ratio |d| / |alpha| among the
             columns that can move the violated basic back towards its
             bound; near-ties prefer the larger pivot element. *)
          let best = ref (-1) in
          let best_ratio = ref infinity in
          let best_alpha = ref 0.0 in
          for j = 0 to t.ncols - 1 do
            let st = Bytes.get t.vstat j in
            if st <> st_basic && t.ub.(j) > t.lb.(j) then begin
              let alpha = dot_col t j t.v_rho in
              let good =
                if !exit_up then
                  (st = st_lower && alpha > pivot_tol)
                  || (st = st_upper && alpha < -.pivot_tol)
                else
                  (st = st_lower && alpha < -.pivot_tol)
                  || (st = st_upper && alpha > pivot_tol)
              in
              if good then begin
                let d = t.obj_coeffs.(j) -. dot_col t j t.v_y in
                let e = Float.max 0.0 (if st = st_lower then d else -.d) in
                let ratio = e /. Float.abs alpha in
                if
                  ratio < !best_ratio -. price_tol
                  || (ratio < !best_ratio +. price_tol
                     && Float.abs alpha > Float.abs !best_alpha)
                then begin
                  best := j;
                  best_ratio := ratio;
                  best_alpha := alpha
                end
              end
            end
          done;
          if !best < 0 && not !refreshed then begin
            (* No direction can repair the violation, by the basic
               values and the row of B^-1 carried through the updates
               since the last refactorization; both drift. Refresh them
               from pristine data, once per call, and look again. *)
            refreshed := true;
            Obs.incr "simplex.refresh";
            if not (refresh t) then res := Some Dual_give_up
          end
          else if !best < 0 then begin
            (* The violation survived the refresh. Trust it as an
               infeasibility certificate only when it is decisive *on
               the violated variable's own scale*: equilibrated columns
               carry bounds up to ~2^25, and a basic on such a column
               accumulates absolute drift far above any fixed epsilon.
               Marginal cases go to the cold two-phase solve, which
               settles feasibility from pristine data. *)
            stuck := true;
            let i = t.basis_arr.(r) in
            let fin b = if Float.is_finite b then Float.abs b else 0.0 in
            let scale =
              Float.max
                (Float.abs t.xb.(r))
                (Float.max (fin t.lb.(i)) (fin t.ub.(i)))
            in
            res :=
              Some
                (if !row_viol > 1e-4 *. (1.0 +. scale) then Dual_infeasible
                 else Dual_give_up)
          end
          else if Float.abs !best_alpha < 1e-7 then
            (* Only numerically dubious pivots remain: let the cold
               two-phase primal decide instead of risking a bad basis. *)
            res := Some Dual_give_up
          else begin
            let j = !best in
            let alpha_rq = !best_alpha in
            let i = t.basis_arr.(r) in
            let target = if !exit_up then t.ub.(i) else t.lb.(i) in
            let dxj = (t.xb.(r) -. target) /. alpha_rq in
            ftran_col t j;
            (* Forrest-Goldfarb weight updates, in the pre-shift frame:
               gamma_i' = gamma_i - 2 kappa tau_i + kappa^2 gamma_r with
               kappa = alpha_i / alpha_rq and tau = B^-1 rho. *)
            let gamma_r = Float.max t.dse.(r) 1e-12 in
            Array.blit t.v_rho 0 t.v_tau 0 t.m;
            ltran t t.v_tau;
            utran t t.v_tau;
            for s = 0 to t.m - 1 do
              if s <> r then begin
                let kappa = t.v_alpha.(s) /. alpha_rq in
                if kappa <> 0.0 then
                  t.dse.(s) <-
                    Float.max
                      (t.dse.(s)
                      -. (2.0 *. kappa *. t.v_tau.(s))
                      +. (kappa *. kappa *. gamma_r))
                      1e-12
              end
            done;
            for s = 0 to t.m - 1 do
              if s <> r then begin
                let a = t.v_alpha.(s) in
                if a <> 0.0 then t.xb.(s) <- t.xb.(s) -. (a *. dxj)
              end
            done;
            let newv = val_of t j +. dxj in
            Bytes.set t.vstat i (if !exit_up then st_upper else st_lower);
            Bytes.set t.vstat j st_basic;
            t.xb.(r) <- newv;
            t.dse.(r) <- Float.max (gamma_r /. (alpha_rq *. alpha_rq)) 1e-12;
            if change_basis t ~row:r ~col:j then begin
              t.pivots <- t.pivots + 1;
              incr steps
            end
            else res := Some Dual_give_up
          end
        end
      end
    done;
    if !refreshed && t.factorized && not !stuck then
      Obs.incr "simplex.refresh_saved";
    match !res with Some o -> o | None -> assert false

  (* Reoptimize from the warm basis installed by [restore] or [reuse]. *)
  let warm_solve t =
    match dual t with
    | Dual_iter -> Iteration_limit
    | Dual_give_up ->
        Obs.incr "simplex.dual_giveup";
        cold_solve t
    | Dual_infeasible ->
        t.warm <- t.warm + 1;
        Infeasible
    | Dual_feasible -> (
        (* Polish with the primal: usually zero pivots, but it also
           absorbs any residual dual infeasibility from drift. *)
        match phase2 t with
        | Phase_done ->
            if audit t then begin
              t.warm <- t.warm + 1;
              extract t
            end
            else begin
              (* Residual primal infeasibility survived the refresh:
                 the warm basis cannot be trusted, so the verdict comes
                 from pristine data instead. *)
              Obs.incr "simplex.warm_audit_fail";
              cold_solve t
            end
        | Phase_unbounded ->
            t.warm <- t.warm + 1;
            Unbounded
        | Phase_iter_limit -> Iteration_limit)

  let solve ?basis ?(bound_overrides = []) t =
    t.pivots <- 0;
    let live = t.live in
    t.live <- no_snapshot;
    let res =
      if not (install_bounds t bound_overrides) then Infeasible
      else
        match basis with
        | Some snap when snap == live && t.factorized ->
            reuse t;
            warm_solve t
        | Some snap when restore t snap -> warm_solve t
        | Some _ | None -> cold_solve t
    in
    if Obs.enabled () then Obs.add "simplex.pivots" (float_of_int t.pivots);
    res

  let basis t =
    let snap = { sb = Array.copy t.basis_arr; sstat = Bytes.copy t.vstat } in
    t.live <- snap;
    snap
end

let solve ?(bound_overrides = []) ?max_pivots model =
  let t = Incremental.create ?max_pivots model in
  Incremental.solve ~bound_overrides t
