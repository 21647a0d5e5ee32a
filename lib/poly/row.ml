(* Constraint rows: the flat form in which {!Poly} stores constraints.

   A row over a space of [n] variables is an [int array] of length
   [n + 2]: the coefficients in the space's index order, then the
   constant, then the kind tag ([eq] for [... = 0], [ge] for
   [... >= 0]).  Rows carry no space; the polyhedron holding them
   does. *)

type t = int array

let eq = 0
let ge = 1

let n_vars r = Array.length r - 2

let inequality n terms k =
  let r = Array.make (n + 2) 0 in
  List.iter (fun (c, i) -> r.(i) <- c) terms;
  r.(n) <- k;
  r.(n + 1) <- ge;
  r

let is_eq r = Array.unsafe_get r (Array.length r - 1) = eq

type triviality = Trivially_true | Trivially_false | Nontrivial

(* Normalize in place: divide by the gcd [g] of the variable
   coefficients; for an inequality, tighten the constant to
   [floor (k / g)]; for an equality, turn [g] not dividing the
   constant into the false [1 = 0] and make the first nonzero
   coefficient positive.  A row with no variable is classified by its
   constant.  Overflow is raised exactly where the [Aff] arithmetic of
   the same steps raises it: on a [min_int] coefficient (gcd), on a
   [min_int] inequality constant when [g > 1], and on a [min_int]
   equality constant that must change sign. *)
let normalize r =
  Work.counters.normalized_rows <- Work.counters.normalized_rows + 1;
  let n = n_vars r in
  let g = ref 0 in
  for j = 0 to n - 1 do
    let c = Array.unsafe_get r j in
    if c <> 0 then g := Ints.gcd !g c
  done;
  let g = !g and k = r.(n) in
  if g = 0 then
    if is_eq r then if k = 0 then Trivially_true else Trivially_false
    else if k >= 0 then Trivially_true
    else Trivially_false
  else if not (is_eq r) then begin
    if g > 1 then begin
      if k = min_int then raise Ints.Overflow;
      for j = 0 to n - 1 do
        r.(j) <- r.(j) / g
      done;
      r.(n) <- Ints.fdiv k g
    end;
    Nontrivial
  end
  else if k mod g <> 0 then begin
    Array.fill r 0 n 0;
    r.(n) <- 1;
    Trivially_false
  end
  else begin
    if g > 1 then
      for j = 0 to n do
        r.(j) <- r.(j) / g
      done;
    let rec first_nonzero j = if r.(j) <> 0 then r.(j) else first_nonzero (j + 1) in
    if first_nonzero 0 < 0 then
      for j = 0 to n do
        r.(j) <- Ints.neg r.(j)
      done;
    Nontrivial
  end

(* The canonical order: descending in the key (kind, coefficients,
   constant of an equality), where [eq] < [ge] and coefficient vectors
   compare lexicographically.  Two inequalities with the same
   coefficients have the same key. *)
let compare a b =
  let n = n_vars a in
  let c = Int.compare b.(n + 1) a.(n + 1) in
  if c <> 0 then c
  else
    let rec go j =
      if j = n then if a.(n + 1) = eq then Int.compare b.(n) a.(n) else 0
      else
        let c = Int.compare (Array.unsafe_get b j) (Array.unsafe_get a j) in
        if c <> 0 then c else go (j + 1)
    in
    go 0
