let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.equal (String.sub s i k) sub || at (i + 1)) in
  at 0
