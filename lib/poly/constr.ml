(* Affine constraints.

   A constraint is either [aff = 0] or [aff >= 0].  Normalization divides
   by the gcd of the variable coefficients and, for inequalities,
   tightens the constant toward the integer hull:  g*x + c >= 0 with
   g = gcd of coefficients is equivalent (over Z) to  x + floor(c/g) >= 0. *)

type kind = Eq | Ge

type t = { kind : kind; aff : Aff.t }

let make kind aff = { kind; aff }
let eq aff = { kind = Eq; aff }
let ge aff = { kind = Ge; aff }

(* a >= b  as  a - b >= 0 *)
let ge2 a b = ge (Aff.sub a b)

(* a <= b  as  b - a >= 0 *)
let le2 a b = ge (Aff.sub b a)

(* a = b *)
let eq2 a b = eq (Aff.sub a b)

(* a > b  over Z as  a - b - 1 >= 0 *)
let gt2 a b = ge (Aff.add_const (Aff.sub a b) (-1))
let lt2 a b = gt2 b a

let kind c = c.kind
let aff c = c.aff
let space c = Aff.space c.aff

(* The negation of an inequality over Z: not(aff >= 0)  is  -aff - 1 >= 0.
   Equalities have no single-constraint negation (callers split into the
   two strict sides). *)
let negate_ge c =
  assert (c.kind = Ge);
  ge (Aff.add_const (Aff.neg c.aff) (-1))

type triviality = Row.triviality = Trivially_true | Trivially_false | Nontrivial

let triviality c =
  if Aff.is_constant c.aff then
    let k = Aff.constant c.aff in
    match c.kind with
    | Eq -> if k = 0 then Trivially_true else Trivially_false
    | Ge -> if k >= 0 then Trivially_true else Trivially_false
  else Nontrivial

let to_row c = Aff.to_row c.aff (match c.kind with Eq -> Row.eq | Ge -> Row.ge)
let of_row space r = { kind = (if Row.is_eq r then Eq else Ge); aff = Aff.of_row space r }

(* Normalize through the row form, so that constraints and the rows
   {!Poly} stores share one normalization. *)
let normalize c =
  let r = to_row c in
  ignore (Row.normalize r);
  of_row (space c) r

let eval c env =
  let v = Aff.eval c.aff env in
  match c.kind with Eq -> v = 0 | Ge -> v >= 0

let rebase c space remap = { c with aff = Aff.rebase c.aff space remap }

let substitute c i e = { c with aff = Aff.substitute c.aff i e }

let pp fmt c =
  Format.fprintf fmt "%a %s 0" Aff.pp c.aff (match c.kind with Eq -> "=" | Ge -> ">=")

let to_string c = Format.asprintf "%a" pp c
