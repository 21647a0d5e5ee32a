(* Convex polyhedra: conjunctions of affine constraints over a space.

   Constraints are stored as flat integer rows ({!Row}) and converted
   to [Constr.t] only at the API edge.  The central algorithm is
   Fourier-Motzkin variable elimination, used for projection (computing
   images of access maps) and for emptiness tests.  Equalities are
   eliminated by substitution.  Both are exact over Q; normalization
   tightens inequality constants to the integer hull of each row, so
   emptiness sits between Q- and Z-feasibility, and is exact for the
   unimodular access functions produced by data-parallel kernels
   (validated against brute-force enumeration in the test suite).

   Parameters take part in elimination during emptiness tests (a
   polyhedron is "empty" when no parameter valuation admits a point),
   but are never projected away by [project_out].

   Canonical rows.  Every polyhedron keeps its rows normalized,
   deduplicated and sorted in {!Row.compare}'s order; an inequality
   keeps the smallest constant among rows with its coefficient vector.
   The list is a function of the set of rows, so operations normalize
   only the rows they create and merge them into rows that are already
   canonical. *)

type t = {
  space : Space.t;
  rows : Row.t list;
  (* A constraint reduced to a false constant was found at construction
     time; [rows] is then irrelevant. *)
  trivially_empty : bool;
}

let space p = p.space
let is_trivially_empty p = p.trivially_empty
let empty space = { space; rows = []; trivially_empty = true }

let constraints p =
  if p.trivially_empty then [] else List.map (Constr.of_row p.space) p.rows

(* --- Canonical row lists ---------------------------------------------- *)

exception Found_empty

(* Normalize the rows [row_of] makes of [items], in list order,
   dropping trivially true ones and raising [Found_empty] at the first
   false one (later items are not looked at). *)
let normalize_in_order row_of items =
  List.fold_left
    (fun acc x ->
       let r = row_of x in
       match Row.normalize r with
       | Row.Trivially_true -> acc
       | Row.Trivially_false -> raise Found_empty
       | Row.Nontrivial -> r :: acc)
    [] items

let normalize_fresh rows = normalize_in_order Fun.id rows

(* Of two rows with the same key, the one to keep: the tighter
   inequality (equal-key equalities are identical). *)
let tighter a b =
  let n = Row.n_vars a in
  if b.(n) < a.(n) then b else a

let rec dedup = function
  | a :: (b :: rest as tl) ->
    if Row.compare a b = 0 then dedup (tighter a b :: rest) else a :: dedup tl
  | l -> l

let sort_uniq rows = dedup (List.sort Row.compare rows)

let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    let c = Row.compare x y in
    if c < 0 then x :: merge a' b
    else if c > 0 then y :: merge a b'
    else merge (tighter x y :: a') b'

(* The polyhedron of canonical rows [kept] and fresh rows [fresh]
   (normalized here, in list order). *)
let of_rows space ~fresh ~kept =
  match normalize_fresh fresh with
  | fresh -> { space; rows = merge (sort_uniq fresh) kept; trivially_empty = false }
  | exception Found_empty -> empty space

let rows_of_constrs space cs =
  normalize_in_order
    (fun c ->
       if not (Space.equal (Constr.space c) space) then invalid_arg "Poly.make: space mismatch";
       Constr.to_row c)
    cs

let make space cs =
  match rows_of_constrs space cs with
  | rows -> { space; rows = sort_uniq rows; trivially_empty = false }
  | exception Found_empty -> empty space

let add_constrs p cs =
  if p.trivially_empty then p
  else
    match rows_of_constrs p.space cs with
    | rows -> { p with rows = merge (sort_uniq rows) p.rows }
    | exception Found_empty -> empty p.space

(* [add_constrs] for fresh rows. *)
let add_rows p rows = if p.trivially_empty then p else of_rows p.space ~fresh:rows ~kept:p.rows

(* [add_rows] for rows already normalized: they are sorted and merged,
   not normalized again. *)
let add_normalized_rows p rows =
  if p.trivially_empty then p
  else begin
    let len = Space.n_total p.space + 2 in
    List.iter
      (fun r -> if Array.length r <> len then invalid_arg "Poly.add_normalized_rows: row length")
      rows;
    { p with rows = merge (sort_uniq rows) p.rows }
  end

let intersect a b =
  if not (Space.equal a.space b.space) then invalid_arg "Poly.intersect: space mismatch";
  if a.trivially_empty || b.trivially_empty then empty a.space
  else { a with rows = merge a.rows b.rows }

(* Value of a row's affine part under a full assignment. *)
let eval_row r env =
  let n = Row.n_vars r in
  let acc = ref r.(n) in
  for j = 0 to n - 1 do
    let c = r.(j) in
    if c <> 0 then acc := Ints.add !acc (Ints.mul c env.(j))
  done;
  !acc

let mem p env =
  (not p.trivially_empty)
  && List.for_all
    (fun r ->
       let v = eval_row r env in
       if Row.is_eq r then v = 0 else v >= 0)
    p.rows

(* --- Fourier-Motzkin elimination ------------------------------------ *)

(* [|a| * c - sign(a) * c.(i) * e] with the coefficient on [i] zeroed:
   [c] with variable [i] substituted through the equality [e] whose
   coefficient on [i] is [a]. *)
let substitute_row e a i c =
  let abs_a = if a < 0 then Ints.neg a else a in
  let k = if a > 0 then Ints.neg c.(i) else c.(i) in
  let r = Array.copy c in
  for j = 0 to Array.length c - 2 do
    r.(j) <- (if j = i then 0 else Ints.add (Ints.mul abs_a c.(j)) (Ints.mul k e.(j)))
  done;
  r

(* [al * u + (-au) * l] with the coefficient on [i] zeroed, for a lower
   bound [l] (coefficient [al > 0]) and an upper bound [u] ([au < 0]). *)
let combine_rows i l u =
  let al = l.(i) and nau = Ints.neg u.(i) in
  let n = Row.n_vars l in
  let r = Array.make (n + 2) Row.ge in
  for j = 0 to n do
    if j <> i then r.(j) <- Ints.add (Ints.mul al u.(j)) (Ints.mul nau l.(j))
  done;
  r.(i) <- 0;
  r

let mentions_var rows i = List.exists (fun r -> Array.unsafe_get r i <> 0) rows

(* Eliminate variable [i]: the space is unchanged, and no row of the
   result mentions [i].  Exact over Q; exact over Z when the equality
   used has a unit coefficient on [i].  With an equality available,
   the last one in list order substitutes [i] away; otherwise every
   lower bound is combined with every upper bound.  The created rows
   are computed first, then normalized in a fixed order (which decides
   whether a false row or an overflow surfaces first); rows without
   [i] are kept as they are, so a list in which no row mentions [i]
   comes back unchanged, and is not counted as an elimination. *)
let eliminate_rows rows i =
  if not (mentions_var rows i) then rows
  else begin
    let eqs, lows, ups, rest =
      List.fold_left
        (fun (eqs, lows, ups, rest) r ->
           let a = r.(i) in
           if a = 0 then (eqs, lows, ups, r :: rest)
           else if Row.is_eq r then (r :: eqs, lows, ups, rest)
           else if a > 0 then (eqs, r :: lows, ups, rest)
           else (eqs, lows, r :: ups, rest))
        ([], [], [], []) rows
    in
    let created =
      match eqs with
      | e :: other_eqs -> List.map (substitute_row e e.(i) i) (other_eqs @ lows @ ups)
      | [] -> List.concat_map (fun l -> List.map (combine_rows i l) ups) lows
    in
    let w = Work.counters in
    w.eliminations <- w.eliminations + 1;
    w.created_rows <- w.created_rows + List.length created;
    merge (sort_uniq (normalize_fresh created)) (List.rev rest)
  end

let mentions p i = (not p.trivially_empty) && mentions_var p.rows i

let eliminate_var p i =
  if p.trivially_empty then p
  else
    match eliminate_rows p.rows i with
    | rows -> { p with rows }
    | exception Found_empty -> empty p.space

(* Feasibility: eliminate every variable, cheapest first (the fewest
   created rows; the lowest index on a tie); the system is infeasible
   iff a false constant row appears. *)
let is_empty p =
  Work.counters.emptiness_tests <- Work.counters.emptiness_tests + 1;
  if p.trivially_empty then true
  else
    let n = Space.n_total p.space in
    let eqs = Array.make n 0 and lows = Array.make n 0 and ups = Array.make n 0 in
    let rec go rows =
      if rows = [] then false
      else begin
        Array.fill eqs 0 n 0;
        Array.fill lows 0 n 0;
        Array.fill ups 0 n 0;
        List.iter
          (fun r ->
             let is_eq = Row.is_eq r in
             for j = 0 to n - 1 do
               let a = Array.unsafe_get r j in
               if a <> 0 then
                 let count = if is_eq then eqs else if a > 0 then lows else ups in
                 count.(j) <- count.(j) + 1
             done)
          rows;
        let best = ref (-1) and best_cost = ref max_int in
        for j = 0 to n - 1 do
          if eqs.(j) + lows.(j) + ups.(j) > 0 then begin
            let cost = if eqs.(j) > 0 then lows.(j) + ups.(j) else lows.(j) * ups.(j) in
            if cost < !best_cost then begin
              best := j;
              best_cost := cost
            end
          end
        done;
        (* No variable occurs: nothing left to eliminate. *)
        !best >= 0 && go (eliminate_rows rows !best)
      end
    in
    (try go p.rows with Found_empty -> true)

(* --- Projection ------------------------------------------------------ *)

(* A remap that keeps the relative order of the variables keeps
   canonical rows canonical; any other remap renormalizes them. *)
let monotone remap =
  let last = ref (-1) and ok = ref true in
  Array.iter
    (fun j ->
       if j >= 0 then begin
         if j <= !last then ok := false;
         last := j
       end)
    remap;
  !ok

let equal_rows a b =
  a.trivially_empty = b.trivially_empty
  && (a.trivially_empty
      || List.equal
           (fun (r : Row.t) s -> Array.length r = Array.length s && Array.for_all2 Int.equal r s)
           a.rows b.rows)

let rebase p space remap =
  if p.trivially_empty then empty space
  else
    let n' = Space.n_total space in
    let move r =
      let r' = Array.make (n' + 2) 0 in
      let n = Row.n_vars r in
      for j = 0 to n - 1 do
        let c = r.(j) in
        if c <> 0 then begin
          let k = remap.(j) in
          if k < 0 then invalid_arg "Aff.rebase: dropped variable has nonzero coefficient";
          r'.(k) <- Ints.add r'.(k) c
        end
      done;
      r'.(n') <- r.(n);
      r'.(n' + 1) <- r.(n + 1);
      r'
    in
    let moved = List.map move p.rows in
    if monotone remap then { space; rows = moved; trivially_empty = false }
    else of_rows space ~fresh:moved ~kept:[]

(* Eliminate the dims at the given combined-vector indices and remove
   them from the space.  The result is the rational shadow, an
   over-approximation of the integer projection. *)
let project_out p idxs =
  Work.counters.projections <- Work.counters.projections + 1;
  let idxs = List.sort_uniq compare idxs in
  List.iter
    (fun i -> if i < Space.n_params p.space then invalid_arg "Poly.project_out: parameter")
    idxs;
  if p.trivially_empty then
    let space =
      List.fold_left (fun sp i -> Space.drop_dim sp i) p.space (List.rev idxs)
    in
    empty space
  else begin
    let rows = try Some (List.fold_left eliminate_rows p.rows idxs) with Found_empty -> None in
    let n = Space.n_total p.space in
    let keep = Array.make n true in
    List.iter (fun i -> keep.(i) <- false) idxs;
    let space =
      Space.filter_dims p.space (fun dim_local ->
          keep.(Space.n_params p.space + dim_local))
    in
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    match rows with
    | None -> empty space
    | Some rows -> rebase { p with rows } space remap
  end

(* Keep only the dims whose dim-local index is in [keep]; eliminate all
   others. *)
let project_onto p keep_local =
  let np = Space.n_params p.space in
  let nd = Space.n_dims p.space in
  let drop = ref [] in
  for d = nd - 1 downto 0 do
    if not (List.mem d keep_local) then drop := (np + d) :: !drop
  done;
  project_out p !drop

(* --- Bounds extraction (for code generation) ------------------------- *)

(* Lower/upper bound pairs for variable [i]:  each lower is (a, rest)
   meaning  x >= ceil(rest / a)  with a > 0;  each upper is (a, rest)
   meaning  x <= floor(rest / a)  with a > 0 (sign already folded). *)
let bounds_of_var p i =
  let lows = ref [] and ups = ref [] in
  if not p.trivially_empty then
    List.iter
      (fun r ->
         let a = r.(i) in
         if a <> 0 then begin
           let rest = Aff.set_coeff (Aff.of_row p.space r) i 0 in
           if Row.is_eq r then
             if a > 0 then begin
               lows := (a, Aff.neg rest) :: !lows;
               ups := (a, Aff.neg rest) :: !ups
             end
             else begin
               lows := (Ints.neg a, rest) :: !lows;
               ups := (Ints.neg a, rest) :: !ups
             end
           else if a > 0 then lows := (a, Aff.neg rest) :: !lows
           else ups := (Ints.neg a, rest) :: !ups
         end)
      p.rows;
  (!lows, !ups)

(* --- Integer sampling (bounded search; used by tests) ----------------- *)

(* Numeric bounds of variable [i] given values for variables already
   fixed in [env] (unfixed = None contributions must be zero).  The
   arithmetic is checked: a bound that does not fit raises
   [Ints.Overflow] instead of wrapping. *)
let numeric_bounds p i env =
  let lows, ups = bounds_of_var p i in
  let eval_rest aff =
    let acc = ref (Aff.constant aff) in
    let ok = ref true in
    Array.iteri
      (fun j v ->
         let c = Aff.coeff aff j in
         if c <> 0 then
           match v with Some x -> acc := Ints.add !acc (Ints.mul c x) | None -> ok := false)
      env;
    if !ok then Some !acc else None
  in
  let lo =
    List.fold_left
      (fun acc (a, r) ->
         match eval_rest r with
         | None -> acc
         | Some v ->
           let b = Ints.cdiv v a in
           (match acc with None -> Some b | Some x -> Some (max x b)))
      None lows
  in
  let hi =
    List.fold_left
      (fun acc (a, r) ->
         match eval_rest r with
         | None -> acc
         | Some v ->
           let b = Ints.fdiv v a in
           (match acc with None -> Some b | Some x -> Some (min x b)))
      None ups
  in
  (lo, hi)

(* Search for an integer point; all variables (params included) must be
   bounded, otherwise [default_radius] caps the search.  Returns the
   full assignment. *)
let sample ?(default_radius = 64) p =
  if p.trivially_empty then None
  else
    let n = Space.n_total p.space in
    let env = Array.make n None in
    let rec go i =
      if i >= n then
        let point = Array.map (function Some v -> v | None -> 0) env in
        if mem p point then Some point else None
      else begin
        let lo, hi = numeric_bounds p i env in
        let lo = match lo with Some v -> v | None -> -default_radius in
        let hi = match hi with Some v -> v | None -> default_radius in
        let rec try_v v =
          if v > hi then None
          else begin
            env.(i) <- Some v;
            match go (i + 1) with
            | Some pt -> Some pt
            | None ->
              env.(i) <- None;
              try_v (v + 1)
          end
        in
        try_v lo
      end
    in
    go 0

(* --- Containment ------------------------------------------------------ *)

(* [-r - 1 >= 0] for the affine part of [r]: over Z, the negation of
   [r >= 0]. *)
let negated_ge r =
  let n = Row.n_vars r in
  let r' = Array.make (n + 2) Row.ge in
  for j = 0 to n do
    r'.(j) <- Ints.neg r.(j)
  done;
  r'.(n) <- Ints.add r'.(n) (-1);
  r'

(* [r - 1 >= 0]. *)
let strict_ge r =
  let r' = Array.copy r in
  r'.(Row.n_vars r) <- Ints.add r.(Row.n_vars r) (-1);
  r'.(Row.n_vars r + 1) <- Row.ge;
  r'

(* [subsumes a b]: does [a] contain [b]?  True when for every constraint
   c of [a], b ∩ ¬c is empty.  Equalities are split into their two
   strict negations.  Sound over Z (uses integer negation). *)
let subsumes a b =
  if b.trivially_empty then true
  else if a.trivially_empty then is_empty b
  else begin
    if a.rows <> [] && not (Space.equal a.space b.space) then
      invalid_arg "Poly.make: space mismatch";
    List.for_all
      (fun r ->
         if Row.is_eq r then
           is_empty (add_rows b [ strict_ge r ]) && is_empty (add_rows b [ negated_ge r ])
         else is_empty (add_rows b [ negated_ge r ]))
      a.rows
  end
