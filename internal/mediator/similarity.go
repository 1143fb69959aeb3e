package mediator

import (
	"strings"
	"unicode"
)

// Levenshtein returns the edit distance between two strings (runes).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity normalizes edit distance into [0,1].
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	max := la
	if lb > max {
		max = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(max)
}

// Jaro computes the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	aMatch := make([]bool, len(ra))
	bMatch := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := max(0, i-window)
		hi := min(len(rb)-1, i+window)
		for j := lo; j <= hi; j++ {
			if bMatch[j] || ra[i] != rb[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for shared prefixes (p=0.1, max 4).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// TokenDice computes the Sørensen–Dice coefficient over word tokens,
// catching multi-word labels ("soil moisture" vs "soil_moisture").
func TokenDice(a, b string) float64 {
	ta, tb := tokens(a), tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	set := make(map[string]bool, len(ta))
	for _, t := range ta {
		set[t] = true
	}
	common := 0
	for _, t := range tb {
		if set[t] {
			common++
		}
	}
	return 2 * float64(common) / float64(len(ta)+len(tb))
}

// tokens splits an identifier into lower-cased word tokens, handling
// snake_case, kebab-case, camelCase and spaces.
func tokens(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	prevLower := false
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == ' ' || r == '.' || r == '/':
			flush()
			prevLower = false
		case unicode.IsUpper(r):
			if prevLower {
				flush()
			}
			cur.WriteRune(unicode.ToLower(r))
			prevLower = false
		default:
			cur.WriteRune(unicode.ToLower(r))
			prevLower = unicode.IsLower(r) || unicode.IsDigit(r)
		}
	}
	flush()
	return out
}

// Similarity is the mediator's combined score: the maximum of
// Jaro-Winkler over the normalized whole strings and token Dice, which
// covers both typo-level and word-level variation.
func Similarity(a, b string) float64 {
	na, nb := normalize(a), normalize(b)
	jw := JaroWinkler(na, nb)
	td := TokenDice(a, b)
	if td > jw {
		return td
	}
	return jw
}

// normalize lower-cases and strips separators for whole-string comparison.
func normalize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || r == '-' || r == ' ' || r == '.' {
			continue
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
