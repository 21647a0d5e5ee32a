(* Affine constraints.

   A constraint is either [aff = 0] or [aff >= 0].  Normalization, done
   on the row form ({!Row.normalize}), divides by the gcd of the
   variable coefficients and, for inequalities, tightens the constant
   toward the integer hull:  g*x + c >= 0 with g = gcd of coefficients
   is equivalent (over Z) to  x + floor(c/g) >= 0. *)

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

let to_row c = Aff.to_row c.aff (match c.kind with Eq -> Row.eq | Ge -> Row.ge)
let of_row space r = { kind = (if Row.is_eq r then Eq else Ge); aff = Aff.of_row space r }
let eval c env =
  let v = Aff.eval c.aff env in
  match c.kind with Eq -> v = 0 | Ge -> v >= 0

let rebase c space remap = { c with aff = Aff.rebase c.aff space remap }

let pp fmt c =
  Format.fprintf fmt "%a %s 0" Aff.pp c.aff (match c.kind with Eq -> "=" | Ge -> ">=")
