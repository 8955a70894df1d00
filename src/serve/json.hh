/**
 * @file
 * Compatibility name for the JSON value type, which lives in
 * common/json.hh as r2u::json. Only the benchmark (perfbench/) still
 * includes this header; new code includes common/json.hh.
 */

#ifndef R2U_SERVE_JSON_HH
#define R2U_SERVE_JSON_HH

#include "common/json.hh"

namespace r2u::serve
{
namespace json = ::r2u::json;
} // namespace r2u::serve

#endif // R2U_SERVE_JSON_HH
