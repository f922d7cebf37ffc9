// analyzer-path: src/core/fixture_comment_and_string_tokens.cpp
// Clean fixture: banned tokens in a block comment and a string literal
// are not code. The blanker erases both, so no rule fires; selftest.py
// also hands this file to the CLI, which must exit 0.
/* std::thread worker; std::mt19937 engine; */
const char* kNote = "never call rand() or std::async(...) here";
