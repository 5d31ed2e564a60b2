type span = int
type stale = int

let ( +! ) a b = a + b
let span n = n
let stale = 0
