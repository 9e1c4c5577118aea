package conceptual

import (
	"sort"
	"testing"
)

// FuzzParse drives the coNCePTuaL parser with arbitrary source text. The
// property: whenever Parse accepts an input, printing the parsed program is
// a fixed point of Print∘Parse — the printed text parses back to a program
// that prints identically. Anything Parse accepts can therefore be
// round-tripped through the printer without drift. Besides the programs
// seeded here, testdata/fuzz/FuzzParse holds benchmarks emitted by the
// generator for small kernel runs.
func FuzzParse(f *testing.F) {
	progs := differentialPrograms()
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(Print(progs[name]))
	}
	f.Add(Print(paperExample()))
	for _, src := range []string{
		"",
		"FOR 3 REPETITIONS { FOR 2 REPETITIONS {",
		"ALL TASKS t SEND A 99999999999999999999 BYTE MESSAGE TO TASK 0",
		`ALL TASKS t LOG THE MEDIAN OF elapsed_usecs AS "unterminated`,
		"TASKS t SUCH THAT t IS IN {1, 2, 5} COMPUTE FOR 3.5 MICROSECONDS",
		"TASKS t SUCH THAT t MOD 3 = 1 SYNCHRONIZE",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		once := Print(p)
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, once)
		}
		if twice := Print(back); twice != once {
			t.Fatalf("Print∘Parse is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", once, twice)
		}
	})
}
