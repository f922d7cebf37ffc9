// analyzer-path: tests/fixture_line_hygiene_test.cpp
// Known-bad fixture: whitespace the formatter would reject. A tab,
// trailing blanks and a line past 80 columns are separate findings.

namespace braidio {

// expect: A12-line-hygiene
	int tabbed = 1;
// expect: A12-line-hygiene
int trailing = 2;   
// expect: A12-line-hygiene
// expect: A12-line-hygiene
	int both = 3; 
// expect: A12-line-hygiene
const char* kLong = "a string literal that runs this line well past the eighty columns";

// No finding: the reason-carrying escape hatch covers the next line.
// analyzer: line-hygiene(one table row per line keeps it greppable)
const char* kRow = "row 1 | row 2 | row 3 | row 4 | row 5 | row 6 | row 7 | row 8";

}  // namespace braidio
