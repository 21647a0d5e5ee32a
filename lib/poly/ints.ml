(* Exact integer arithmetic helpers for the polyhedral library.

   All polyhedral computations in this library are performed on native
   63-bit integers.  Fourier-Motzkin elimination multiplies coefficients
   together, so intermediate values can grow; every arithmetic operation
   used during elimination goes through the checked variants below, which
   raise [Overflow] instead of wrapping silently.  Constraint
   normalization (gcd division) keeps coefficients small in practice. *)

exception Overflow

let add a b =
  let r = a + b in
  (* Overflow happened iff both operands have the same sign and the
     result's sign differs. *)
  if (a >= 0) = (b >= 0) && (r >= 0) <> (a >= 0) then raise Overflow;
  r

let sub a b = if b = min_int then raise Overflow else add a (-b)

let mul a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a || (a = min_int && b = -1) then raise Overflow;
    r

let neg a = if a = min_int then raise Overflow else -a

let gcd a b =
  (* [abs min_int] is negative, which would make the "gcd" negative (and
     [gcd min_int min_int] loop); treat it like the other checked ops. *)
  if a = min_int || b = min_int then raise Overflow;
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (abs a) (abs b)

let lcm a b =
  if a = 0 || b = 0 then 0
  else
    let p = mul (a / gcd a b) b in
    (* [mul] permits an exact [min_int] product (e.g. [2^61 * -2]), but
       its absolute value is not representable. *)
    if p = min_int then raise Overflow;
    abs p

(* Floor division: rounds toward negative infinity. *)
let fdiv a b =
  assert (b <> 0);
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(* Ceiling division: rounds toward positive infinity. *)
let cdiv a b =
  assert (b <> 0);
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) = (b < 0) then q + 1 else q

(* Euclidean remainder: always in [0, |b|). *)
let emod a b =
  let r = a mod b in
  if r < 0 then r + abs b else r

(* Gcd of an array, ignoring zeros; 0 if all elements are zero. *)
let gcd_array arr = Array.fold_left gcd 0 arr
